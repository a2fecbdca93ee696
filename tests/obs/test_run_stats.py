"""The one telemetry fold (RunStats) and the views that render it.

metrics@1, the hotspot profile, ``/metrics``, the archive manifest and
its ``live.jsonl``, ``repro history`` and the regression gate's
figures all render :class:`~repro.obs.live.RunStats`; these tests pin
that they agree, that repeated phases sum everywhere, that setup spans
(the submit's ``fingerprint`` among them) and the ``extract``,
``evidence`` and ``certify`` step spans reach every view, and that
manifests written before the fold kept spans still restore.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core import DBREPipeline
from repro.obs import Tracer, live_records
from repro.obs.archive import RunArchive
from repro.obs.export import metrics_from_records, metrics_from_stats, write_metrics_json
from repro.obs.history import archive_trends, render_archive_trends
from repro.obs.live import RunStats
from repro.obs.profile import (
    diff_views,
    profile_from_records,
    render_diff,
    view_from_export,
)
from repro.service.jobs import JobManager
from repro.service.metrics import render_metrics
from repro.workloads.scenario import ScenarioConfig, build_scenario

#: the wide scenario (25 equi-joins, at most 1,200 rows) at seed 1
WIDE = ScenarioConfig(
    seed=1, n_entities=30, n_one_to_many=26, n_many_to_many=4, merges=8,
    parent_rows=5,
)


def metrics_of(tracer):
    """The metrics document of *tracer*'s written capture."""
    return metrics_from_records(live_records(tracer.live_bus))


def profile_of(tracer):
    """The hotspot profile of *tracer*'s written capture."""
    return profile_from_records(live_records(tracer.live_bus))


def samples(exposition, family):
    """``{labels: value}`` of one family in a text exposition."""
    out = {}
    for line in exposition.splitlines():
        if line.startswith(family + "{"):
            labels, value = line[len(family):].rsplit(" ", 1)
            out[labels] = float(value)
    return out


@pytest.fixture(scope="module")
def twice():
    """One tracer (bus attached) that recorded two runs of wide seed 1."""
    scenario = build_scenario(WIDE)
    tracer = Tracer()
    for _ in range(2):
        DBREPipeline(scenario.database, scenario.expert, tracer=tracer).run(
            corpus=scenario.corpus
        )
    return tracer


class TestRepeatedPhases:
    def test_phase_queries_sum_to_the_total(self, twice):
        metrics = metrics_of(twice)
        phases = metrics["phases"]
        assert sum(p["queries"] for p in phases.values()) == metrics["totals"]["queries"]
        assert metrics["totals"]["queries"] == 2 * 214

    def test_phase_ms_equal_the_live_fold(self, twice):
        fold = twice.live_bus.stats()
        metrics = metrics_of(twice)
        assert set(metrics["phases"]) == set(fold.phase_ms)
        for name, ms in fold.phase_ms.items():
            assert metrics["phases"][name]["duration_ms"] == pytest.approx(ms, abs=1e-6)
        assert fold.phase_runs == {name: 2 for name in fold.phase_ms}

    def test_profile_phase_and_span_tables_agree(self, twice):
        profile = profile_of(twice)
        assert profile["phases"]
        for name, phase in profile["phases"].items():
            span = profile["spans"][name]
            assert span["count"] == 2
            assert phase["inclusive_ms"] == span["inclusive_ms"]
            assert phase["self_ms"] == span["self_ms"]
        assert sum(p["queries"] for p in profile["phases"].values()) == 2 * 214


class TestSetupSection:
    def traced(self, copy_seconds):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])
        with tracer.span("pipeline", kind="pipeline"):
            with tracer.span("copy", kind="setup"):
                now[0] += copy_seconds
            with tracer.span("IND-Discovery", kind="phase"):
                now[0] += 1.0
        return tracer

    def test_metrics_carry_setup_spans_apart_from_phases(self):
        metrics = metrics_of(self.traced(3))
        assert metrics["setup"] == {"copy": {"duration_ms": 3000.0}}
        assert "copy" not in metrics["phases"]

    def test_views_and_diff_list_setup_steps(self, tmp_path):
        fast, slow = self.traced(2), self.traced(5)
        views = []
        for label, tracer in (("fast", fast), ("slow", slow)):
            path = tmp_path / f"{label}.metrics.json"
            write_metrics_json(tracer.live_bus.stats(), str(path))
            views.append(view_from_export("repro/metrics@1", json.loads(path.read_text())))
        assert views[1]["setup"] == {"copy": 5000.0}
        trace_view = view_from_export("repro/live@1", live_records(slow.live_bus))
        assert trace_view["setup"] == {"copy": 5000.0}
        diff = diff_views(*views)
        assert diff["setup"][0]["name"] == "copy"
        assert diff["setup"][0]["delta_ms"] == 3000.0
        text = render_diff(diff, "fast", "slow")
        assert "## Setup steps" in text and "copy" in text


def failing_identifiers(result):
    """Identifiers with a failing ``A -> b``: one ``evidence`` span each."""
    return sum(
        1
        for o in result.rhs_result.outcomes
        if any(c not in o.accepted or c in o.enforced for c in o.candidates)
    )


class TestEvidenceStep:
    @pytest.fixture(scope="class")
    def run(self):
        scenario = build_scenario(WIDE)
        tracer = Tracer()
        result = DBREPipeline(scenario.database, scenario.expert, tracer=tracer).run(
            corpus=scenario.corpus
        )
        return tracer, result

    def test_one_span_per_identifier_with_a_failing_candidate(self, run):
        tracer, result = run
        spans = [s for s in tracer.spans if s.name == "evidence"]
        assert len(spans) == failing_identifiers(result) > 0
        assert {s.kind for s in spans} == {"step"}
        rhs = next(s for s in tracer.spans if s.name == "RHS-Discovery")
        assert {s.parent_id for s in spans} == {rhs.span_id}

    def test_the_span_adds_no_extension_query(self, run):
        tracer, result = run
        evidence = {s.span_id for s in tracer.spans if s.name == "evidence"}
        assert not [e for e in tracer.events if e.span_id in evidence]
        assert result.extension_queries == 214

    def test_every_view_shows_time_and_count(self, run):
        tracer, _ = run
        count = sum(1 for s in tracer.spans if s.name == "evidence")
        fold = tracer.live_bus.stats()
        assert fold.step_runs["evidence"] == count
        steps = metrics_of(tracer)["steps"]
        assert steps["evidence"]["count"] == count
        assert steps["evidence"]["duration_ms"] == pytest.approx(
            fold.step_ms["evidence"], abs=1e-6
        )
        assert profile_of(tracer)["spans"]["evidence"]["count"] == count
        assert "evidence" not in metrics_of(tracer)["phases"]


class TestExtractAndCertifySteps:
    """Q extraction and each decomposition's certificate: one step span
    each, with no per-view code, and no extension query inside."""

    @pytest.fixture(scope="class")
    def run(self):
        scenario = build_scenario(WIDE)
        tracer = Tracer()
        result = DBREPipeline(scenario.database, scenario.expert, tracer=tracer).run(
            corpus=scenario.corpus
        )
        return tracer, result

    def test_one_extract_span_under_the_root(self, run):
        tracer, result = run
        (span,) = [s for s in tracer.spans if s.name == "extract"]
        root = next(s for s in tracer.spans if s.name == "pipeline")
        assert (span.kind, span.parent_id) == ("step", root.span_id)
        assert result.extraction is not None
        # a precomputed Q skips extraction, and so the span
        scenario = build_scenario(WIDE)
        rerun = DBREPipeline(scenario.database, scenario.expert).run(equijoins=result.equijoins)
        assert "extract" not in {s.name for s in rerun.trace.spans}

    def test_one_certify_span_per_certificate_inside_restruct(self, run):
        tracer, result = run
        spans = [s for s in tracer.spans if s.name == "certify"]
        certificates = result.restruct_result.certificates
        assert len(spans) == len(certificates) > 0
        restruct = next(s for s in tracer.spans if s.name == "Restruct")
        assert {(s.kind, s.parent_id) for s in spans} == {("step", restruct.span_id)}
        assert [s.attributes["relation"] for s in spans] == [
            c.source for c in certificates
        ]

    @pytest.mark.parametrize("name", ["extract", "certify"])
    def test_every_view_shows_time_and_count(self, run, name):
        tracer, _ = run
        spans = [s for s in tracer.spans if s.name == name]
        assert not [e for e in tracer.events if e.span_id in {s.span_id for s in spans}]
        fold = tracer.live_bus.stats()
        assert fold.step_runs[name] == len(spans)
        steps = metrics_of(tracer)["steps"]
        assert steps[name]["count"] == len(spans)
        assert steps[name]["duration_ms"] == pytest.approx(fold.step_ms[name], abs=1e-6)
        assert profile_of(tracer)["spans"][name]["count"] == len(spans)
        assert name not in metrics_of(tracer)["phases"]


class TestFingerprintSpan:
    def test_a_fresh_job_records_its_key_as_its_first_setup_span(self):
        scenario = build_scenario(WIDE)
        config = {"expert": scenario.expert}
        with JobManager(runners=1) as manager:
            job = manager.submit(scenario.database, corpus=scenario.corpus, config=config)
            manager.result(job.id, timeout=120)
            twin = manager.submit(scenario.database, corpus=scenario.corpus, config=config)
        first = job.trace.spans[0]
        assert (first.name, first.kind, first.parent_id) == ("fingerprint", "setup", None)
        assert [s.name for s in job.trace.spans].count("fingerprint") == 1
        assert not [e for e in job.trace.events if e.span_id == first.span_id]
        ms = job.live.stats().setup_ms["fingerprint"]
        assert ms == pytest.approx(first.duration * 1000, abs=1e-3)
        setup = metrics_of(job.trace)["setup"]
        assert setup["fingerprint"]["duration_ms"] == pytest.approx(ms, abs=1e-6)
        # a cache hit never runs: no tracer, nothing recorded
        assert twin.cached and twin.trace is None


#: a manifest ``stats`` dict as written since the working copy got its
#: ``setup`` span, in the flat shape of the fold's predecessor
FLAT_WITH_SETUP = {
    "events": {"span-open": 7, "span-close": 7, "primitive": 26, "end": 1},
    "phase_runs": {"IND-Discovery": 1, "Restruct": 1},
    "phase_ms": {"IND-Discovery": 12.5, "Restruct": 4.25},
    "setup_ms": {"copy": 0.75},
    "primitive_calls": {"count_distinct": 20, "join_count": 6},
    "primitive_cache_hits": {"count_distinct": 5},
    "storage_counters": {"pool_hits": 20, "pool_misses": 5},
    "pool_events": {"respawn": 1},
}

#: the same shape from before setup spans existed
FLAT_BEFORE_SETUP = {
    "events": {"span-open": 6, "span-close": 6, "primitive": 26, "end": 1},
    "phase_runs": {"IND-Discovery": 1, "Restruct": 1},
    "phase_ms": {"IND-Discovery": 10.0, "Restruct": 6.0},
    "primitive_calls": {"count_distinct": 20, "join_count": 6},
    "primitive_cache_hits": {"count_distinct": 7, "join_count": 2},
    "storage_counters": {},
    "pool_events": {},
}


class TestArchiveCompatibility:
    @pytest.fixture
    def archive(self, tmp_path):
        archive = RunArchive(str(tmp_path / "runs.archive"))
        for job_id, token, stats in (
            ("job-1", "a", FLAT_WITH_SETUP), ("job-2", "b", FLAT_BEFORE_SETUP)
        ):
            key = archive.store(
                {"type": "job", "id": job_id, "label": job_id, "state": "done"},
                ("db", "wl", token),
            )
            manifest_path = os.path.join(archive.root, "runs", key, "record.json")
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            manifest["stats"] = stats
            with open(manifest_path, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle)
        return archive

    def test_flat_stats_restore_into_the_fold(self, archive):
        first, second = archive.runs()
        assert isinstance(first.stats, RunStats)
        for run, flat in ((first, FLAT_WITH_SETUP), (second, FLAT_BEFORE_SETUP)):
            for name in ("events", "phase_runs", "phase_ms", "primitive_calls",
                         "primitive_cache_hits"):
                assert getattr(run.stats, name) == flat[name], name
            assert run.stats.setup_ms == flat.get("setup_ms", {})
            # the paged backend's storage counters are dropped on restore
            assert run.stats.backends == {}
            assert "storage_counters" not in run.stats.as_dict()

    def test_metrics_exposition_renders_the_flat_counters(self, archive):
        with JobManager(runners=1, archive=archive) as manager:
            text = render_metrics(manager)
        assert samples(text, "repro_phase_runs_total") == {
            '{phase="IND-Discovery"}': 2, '{phase="Restruct"}': 2,
        }
        assert samples(text, "repro_phase_latency_ms_total") == {
            '{phase="IND-Discovery"}': 22.5, '{phase="Restruct"}': 10.25,
        }
        assert samples(text, "repro_setup_latency_ms_total") == {'{step="copy"}': 0.75}
        assert samples(text, "repro_primitive_calls_total") == {
            '{primitive="count_distinct"}': 40, '{primitive="join_count"}': 12,
        }
        assert samples(text, "repro_primitive_cache_hits_total") == {
            '{primitive="count_distinct"}': 12, '{primitive="join_count"}': 2,
        }
        assert "repro_storage_counter_total" not in text
        assert "repro_pool_events_total" not in text
        assert samples(text, "repro_live_events_total") == {
            '{type="end"}': 2, '{type="primitive"}': 52,
            '{type="span-close"}': 13, '{type="span-open"}': 13,
        }

    def test_history_renders_the_flat_counters(self, archive):
        (row,) = archive_trends(archive)
        assert row["runs"] == 2
        assert row["phase_ms"] == {"IND-Discovery": 22.5, "Restruct": 10.25}
        assert row["wall_ms"] == [16.75, 16.0]
        assert row["cache_hit_rate"] == round(14 / 52, 4)
        assert "pool_incidents" not in row
        assert "IND-Discovery=22.5ms" in render_archive_trends(archive)

    def test_fold_shape_round_trips_exactly(self, twice):
        stats = twice.live_bus.stats()
        document = stats.as_dict()
        assert RunStats.from_dict(json.loads(json.dumps(document))).as_dict() == document
        assert RunStats.from_dict(document).phase_ms == stats.phase_ms


class TestCrossViewAgreement:
    """One job, every view: counts equal, milliseconds within 1e-6."""

    @pytest.fixture(scope="class")
    def views(self, tmp_path_factory):
        from benchmarks.regression import gate_figures
        from repro.service.specs import submit_spec

        archive = RunArchive(str(tmp_path_factory.mktemp("agree") / "archive"))
        with JobManager(runners=1, archive=archive) as manager:
            job = submit_spec(manager, {"demo": True})
            manager.result(job.id, timeout=120)
            deadline = time.monotonic() + 30
            while job.archived is None and time.monotonic() < deadline:
                time.sleep(0.02)
            assert job.archived, "the demo job never reached the archive"
            exposition = render_metrics(manager)
        trace = live_records(job.live)
        (run,) = archive.runs()
        return {
            "trace": trace,
            "metrics": metrics_from_records(trace),
            "profile": profile_from_records(trace),
            "exposition": exposition,
            "manifest": run.stats,
            "archived": metrics_from_stats(
                RunStats.fold(archive.read_artifact(job.archived, "live"))
            ),
            "gate": gate_figures(job.live.stats()),
        }

    def test_primitive_calls_hits_and_rows(self, views):
        metrics = views["metrics"]
        calls = {p: r["calls"] for p, r in metrics["primitives"].items()}
        hits = {p: r["cache_hits"] for p, r in metrics["primitives"].items()}
        rows = {p: r["rows_touched"] for p, r in metrics["primitives"].items()}
        assert calls and sum(calls.values()) == metrics["totals"]["queries"]
        for other in (views["profile"], views["archived"], {"primitives": views["gate"]["primitives"]}):
            assert {p: r["calls"] for p, r in other["primitives"].items()} == calls
            assert {p: r["cache_hits"] for p, r in other["primitives"].items()} == hits
            assert {p: r["rows_touched"] for p, r in other["primitives"].items()} == rows
        assert views["gate"]["queries"] == calls
        assert views["gate"]["cache_hits"] == sum(hits.values())
        assert views["gate"]["rows_touched"] == sum(rows.values())
        assert dict(views["manifest"].primitive_calls) == calls
        assert dict(views["manifest"].primitive_cache_hits) == {p: n for p, n in hits.items() if n}
        exposed = samples(views["exposition"], "repro_primitive_calls_total")
        assert exposed == {f'{{primitive="{p}"}}': n for p, n in calls.items()}
        exposed = samples(views["exposition"], "repro_primitive_cache_hits_total")
        assert exposed == {f'{{primitive="{p}"}}': n for p, n in hits.items() if n}

    def test_phase_and_setup_ms(self, views):
        metrics = views["metrics"]
        phase_ms = {p: r["duration_ms"] for p, r in metrics["phases"].items()}
        setup_ms = {s: r["duration_ms"] for s, r in metrics["setup"].items()}
        assert set(phase_ms) >= {"IND-Discovery", "Restruct"}
        assert set(setup_ms) == {"copy", "fingerprint"}
        candidates = {
            "profile": {p: r["inclusive_ms"] for p, r in views["profile"]["phases"].items()},
            "archived": {p: r["duration_ms"] for p, r in views["archived"]["phases"].items()},
            "manifest": dict(views["manifest"].phase_ms),
            "gate": {p: r["duration_ms"] for p, r in views["gate"]["phases"].items()},
            "exposition": {
                labels[len('{phase="'):-2]: value
                for labels, value in samples(
                    views["exposition"], "repro_phase_latency_ms_total"
                ).items()
            },
        }
        for label, figures in candidates.items():
            assert set(figures) == set(phase_ms), label
            for name, ms in figures.items():
                assert ms == pytest.approx(phase_ms[name], abs=1e-6), (label, name)
        setups = {
            "archived": {s: r["duration_ms"] for s, r in views["archived"]["setup"].items()},
            "manifest": dict(views["manifest"].setup_ms),
            "exposition": {
                labels[len('{step="'):-2]: value
                for labels, value in samples(
                    views["exposition"], "repro_setup_latency_ms_total"
                ).items()
            },
        }
        for label, figures in setups.items():
            assert set(figures) == set(setup_ms), label
            for name, ms in figures.items():
                assert ms == pytest.approx(setup_ms[name], abs=1e-6), (label, name)

    def test_step_runs_and_ms(self, views):
        steps = views["metrics"]["steps"]
        assert set(steps) == {"extract", "evidence", "certify"}
        assert all(r["count"] > 0 for r in steps.values())
        runs = {s: r["count"] for s, r in steps.items()}
        ms = {s: r["duration_ms"] for s, r in steps.items()}
        assert {s: r["count"] for s, r in views["archived"]["steps"].items()} == runs
        assert dict(views["manifest"].step_runs) == runs
        for name, count in runs.items():
            assert views["profile"]["spans"][name]["count"] == count
        assert samples(views["exposition"], "repro_step_runs_total") == {
            f'{{step="{s}"}}': n for s, n in runs.items()
        }
        for figures in (
            {s: r["duration_ms"] for s, r in views["archived"]["steps"].items()},
            dict(views["manifest"].step_ms),
            {s: views["profile"]["spans"][s]["inclusive_ms"] for s in ms},
            {
                labels[len('{step="'):-2]: value
                for labels, value in samples(
                    views["exposition"], "repro_step_latency_ms_total"
                ).items()
            },
        ):
            assert set(figures) == set(ms)
            for name, value in figures.items():
                assert value == pytest.approx(ms[name], abs=1e-6), name

    def test_phase_queries(self, views):
        queries = {p: r["queries"] for p, r in views["metrics"]["phases"].items()}
        assert {p: r["queries"] for p, r in views["profile"]["phases"].items()} == queries
        assert {p: r["queries"] for p, r in views["archived"]["phases"].items()} == queries
        assert {p: r["queries"] for p, r in views["gate"]["phases"].items()} == queries
