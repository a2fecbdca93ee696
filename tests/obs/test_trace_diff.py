"""Trace-diff engine tests: kind sniffing, ranking, explanations.

Ends with the acceptance scenario from the issue: two recorded traces
of the paper's worked example — one on the memory backend, one on the
SQLite pushdown backend — diffed through the real CLI, with at least
one primitive-level delta ranked and explained by its cache-hit-rate
change.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    LIVE_FORMAT,
    METRICS_FORMAT,
    Tracer,
    live_records,
    write_live_jsonl,
    write_metrics_json,
)
from repro.obs.profile import (
    detect_export_kind,
    diff_views,
    load_export,
    render_diff,
    view_from_export,
)
from tests.obs.test_profile import ManualClock, event


def make_trace(slow: bool) -> Tracer:
    """A two-phase run; the slow variant loses its cache and doubles."""
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    tracer.live()
    root = tracer.start_span("pipeline", kind="pipeline")
    clock.t = 1.0
    phase = tracer.start_span("IND-Discovery", kind="phase")
    for i in range(4):
        event(
            tracer,
            "count_distinct",
            start=1.0 + i,
            duration=2.0 if slow else 0.5,
            cache_hit=not slow,
            rows=100 if slow else 0,
        )
    clock.t = 11.0 if slow else 5.0
    tracer.end_span(phase)
    clock.t = 12.0 if slow else 6.0
    tracer.end_span(root)
    return tracer


class TestKindDetection:
    def test_trace_and_metrics_files_are_told_apart(self, tmp_path):
        tracer = make_trace(slow=False)
        trace_path = tmp_path / "run.trace.jsonl"
        metrics_path = tmp_path / "run.metrics.json"
        write_live_jsonl(tracer.live_bus, str(trace_path))
        write_metrics_json(tracer.live_bus.stats(), str(metrics_path))
        assert detect_export_kind(str(trace_path))[0] == LIVE_FORMAT
        assert detect_export_kind(str(metrics_path))[0] == METRICS_FORMAT

    def test_provenance_files_are_recognized(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(
            '{"type": "provenance", "format": "repro/provenance@1", '
            '"nodes": 0, "edges": 0}\n'
        )
        assert detect_export_kind(str(path))[0] == "repro/provenance@1"

    def test_unknown_documents_are_unknown(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": "world"}\n')
        assert detect_export_kind(str(path))[0] == "unknown"

    def test_load_export_mismatch_is_a_one_line_error(self, tmp_path):
        tracer = make_trace(slow=False)
        metrics_path = tmp_path / "m.json"
        write_metrics_json(tracer.live_bus.stats(), str(metrics_path))
        with pytest.raises(ValueError) as excinfo:
            load_export(str(metrics_path), LIVE_FORMAT)
        message = str(excinfo.value)
        assert "repro/metrics@1" in message
        assert "repro/live@1" in message
        assert "\n" not in message

    def test_load_export_accepts_the_right_kind(self, tmp_path):
        tracer = make_trace(slow=False)
        trace_path = tmp_path / "t.jsonl"
        write_live_jsonl(tracer.live_bus, str(trace_path))
        records = load_export(str(trace_path), LIVE_FORMAT)
        assert records[0]["format"] == LIVE_FORMAT


class TestDiffEngine:
    def views(self):
        fast = view_from_export(LIVE_FORMAT, live_records(make_trace(False).live_bus))
        slow = view_from_export(LIVE_FORMAT, live_records(make_trace(True).live_bus))
        return fast, slow

    def test_primitive_deltas_are_ranked_by_absolute_delta(self):
        fast, slow = self.views()
        diff = diff_views(fast, slow)
        assert diff["primitives"][0]["name"] == "count_distinct"
        # 4 calls × (2.0 - 0.5) s = 6 s slower
        assert diff["primitives"][0]["delta_ms"] == 6000.0
        deltas = [abs(r["delta_ms"]) for r in diff["primitives"]]
        assert deltas == sorted(deltas, reverse=True)

    def test_cache_hit_rate_delta_is_the_explanation(self):
        fast, slow = self.views()
        row = diff_views(fast, slow)["primitives"][0]
        assert row["hit_rate_a"] == 1.0
        assert row["hit_rate_b"] == 0.0
        assert "cache hit-rate 100% -> 0%" in row["explanation"]
        assert "rows scanned" in row["explanation"]

    def test_identical_views_have_zero_deltas(self):
        fast, _ = self.views()
        diff = diff_views(fast, fast)
        assert all(r["delta_ms"] == 0.0 for r in diff["primitives"])
        assert all(r["delta_ms"] == 0.0 for r in diff["spans"])
        assert (
            diff["primitives"][0]["explanation"]
            == "same calls, same cache behavior"
        )

    def test_span_self_time_deltas_are_present_for_traces(self):
        fast, slow = self.views()
        diff = diff_views(fast, slow)
        names = [r["name"] for r in diff["spans"]]
        assert "IND-Discovery" in names and "pipeline" in names

    def test_metrics_views_diff_without_span_section(self, tmp_path):
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        write_metrics_json(make_trace(False).live_bus.stats(), str(a_path))
        write_metrics_json(make_trace(True).live_bus.stats(), str(b_path))
        views = [
            view_from_export(*detect_export_kind(str(p)))
            for p in (a_path, b_path)
        ]
        diff = diff_views(*views)
        assert diff["spans"] == []
        assert diff["phases"][0]["name"] == "IND-Discovery"
        assert diff["primitives"][0]["delta_ms"] == 6000.0

    def test_view_from_export_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            view_from_export("repro/provenance@1", [])

    def test_render_diff_tables(self):
        fast, slow = self.views()
        text = render_diff(diff_views(fast, slow), "fast", "slow")
        assert "## Self time by span" in text
        assert "## Primitives" in text
        assert "cache hit-rate 100% -> 0%" in text


class TestPaperExampleAcceptance:
    """The issue's acceptance scenario, through the real pipeline + CLI."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        from repro.backends import SQLiteBackend
        from repro.core import DBREPipeline, ScriptedExpert
        from repro.workloads.paper_example import (
            build_paper_database,
            paper_expert_script,
            paper_program_corpus,
        )

        outdir = tmp_path_factory.mktemp("paper-traces")
        paths = {}
        for label in ("memory", "sqlite"):
            database = build_paper_database()
            if label == "sqlite":
                database = database.copy(backend=SQLiteBackend())
            tracer = Tracer()
            tracer.live()
            pipeline = DBREPipeline(
                database, ScriptedExpert(paper_expert_script()), tracer=tracer
            )
            pipeline.run(corpus=paper_program_corpus())
            paths[label] = str(outdir / f"paper.{label}.trace.jsonl")
            write_live_jsonl(tracer.live_bus, paths[label])
            database.close()
        return paths

    def test_backends_differ_in_cache_behavior_not_call_count(self, traces):
        views = {
            label: view_from_export(*detect_export_kind(path))
            for label, path in traces.items()
        }
        diff = diff_views(views["memory"], views["sqlite"])
        assert diff["primitives"], "the worked example must issue primitives"
        top = diff["primitives"][0]
        # same logical stream on both backends ...
        assert all(r["calls_a"] == r["calls_b"] for r in diff["primitives"])
        # ... but at least one primitive's cache behavior differs and is
        # named as the explanation of its ranked delta
        explained = [
            r for r in diff["primitives"] if "cache hit-rate" in r["explanation"]
        ]
        assert explained, f"no cache-hit-rate delta explained: {diff['primitives']}"
        assert top["delta_ms"] != 0.0

    def test_cli_trace_diff_ranks_and_explains(self, traces, capsys):
        from repro.cli import main

        assert main(["trace", "diff", traces["memory"], traces["sqlite"]]) == 0
        out = capsys.readouterr().out
        assert "# Trace diff" in out
        assert "## Primitives" in out
        assert "cache hit-rate" in out

    def test_cli_trace_diff_accepts_metrics_files(self, traces, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import metrics_from_records, read_live_jsonl

        paths = []
        for label, trace_path in traces.items():
            metrics = metrics_from_records(read_live_jsonl(trace_path))
            path = tmp_path / f"{label}.metrics.json"
            path.write_text(json.dumps(metrics))
            paths.append(str(path))
        assert main(["trace", "diff", *paths]) == 0
        out = capsys.readouterr().out
        assert "## Phase durations" in out
        assert "## Primitives" in out

    def test_cli_trace_diff_rejects_undiffable_files(self, traces, tmp_path, capsys):
        from repro.cli import main

        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"hello": "world"}\n')
        assert main(["trace", "diff", traces["memory"], str(bogus)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "bogus.json" in err
