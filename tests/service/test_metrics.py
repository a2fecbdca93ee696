"""The Prometheus exposition: rendering, aggregation, and the lint."""

import threading
import urllib.request

import pytest

from repro.service.jobs import JobManager
from repro.service.metrics import (
    METRICS_CONTENT_TYPE,
    lint_exposition,
    render_metrics,
)
from repro.service.server import build_server
from repro.workloads.paper_example import build_paper_database, paper_equijoins


@pytest.fixture
def manager():
    with JobManager(runners=1) as mgr:
        yield mgr


def run_one(manager):
    job = manager.submit(build_paper_database(), equijoins=paper_equijoins())
    manager.result(job.id, timeout=30)
    return job


def samples(text, name):
    """The exposition's samples for family *name* as {labels-line: value}."""
    out = {}
    for line in text.splitlines():
        if line.startswith(name + "{") or line.startswith(name + " "):
            left, _, value = line.rpartition(" ")
            out[left] = float(value)
    return out


class TestRendering:
    def test_empty_manager_renders_and_lints_clean(self, manager):
        text = render_metrics(manager)
        assert lint_exposition(text) == []
        jobs = samples(text, "repro_jobs_total")
        assert jobs['repro_jobs_total{state="done"}'] == 0
        assert jobs['repro_jobs_total{state="running"}'] == 0

    def test_finished_run_shows_in_every_family(self, manager):
        run_one(manager)
        text = render_metrics(manager, streams_active=2)
        assert lint_exposition(text) == []
        assert samples(text, "repro_jobs_total")[
            'repro_jobs_total{state="done"}'
        ] == 1
        phases = samples(text, "repro_phase_runs_total")
        assert phases['repro_phase_runs_total{phase="IND-Discovery"}'] == 1
        assert phases['repro_phase_runs_total{phase="Translate"}'] == 1
        latency = samples(text, "repro_phase_latency_ms_total")
        assert latency['repro_phase_latency_ms_total{phase="IND-Discovery"}'] > 0
        # the pipeline's working copy is a setup step, not a phase
        assert 'repro_phase_runs_total{phase="copy"}' not in phases
        setup = samples(text, "repro_setup_latency_ms_total")
        assert setup['repro_setup_latency_ms_total{step="copy"}'] > 0
        calls = samples(text, "repro_primitive_calls_total")
        assert calls['repro_primitive_calls_total{primitive="count_distinct"}'] > 0
        assert samples(text, "repro_sse_streams_active")[
            "repro_sse_streams_active"
        ] == 2

    def test_cache_hits_count_jobs_not_streams(self, manager):
        run_one(manager)
        twin = manager.submit(
            build_paper_database(), equijoins=paper_equijoins()
        )
        assert twin.cached
        text = render_metrics(manager)
        assert samples(text, "repro_jobs_cached_total")[
            "repro_jobs_cached_total"
        ] == 1
        # the cached job never ran: phase counters did not double
        assert samples(text, "repro_phase_runs_total")[
            'repro_phase_runs_total{phase="IND-Discovery"}'
        ] == 1


class TestAggregationSurvival:
    """Counters stay complete and monotonic whatever the history holds,
    and past eviction."""

    def test_counters_survive_history_trimming(self, manager):
        job = run_one(manager)
        bus = job.live
        # drop the history's records: the stats (not the history) feed
        # the exposition, so nothing is lost
        with bus._lock:
            del bus._history[:-1]
        text = render_metrics(manager)
        assert lint_exposition(text) == []
        phases = samples(text, "repro_phase_runs_total")
        assert phases['repro_phase_runs_total{phase="IND-Discovery"}'] == 1
        assert phases['repro_phase_runs_total{phase="Translate"}'] == 1
        calls = samples(text, "repro_primitive_calls_total")
        assert calls['repro_primitive_calls_total{primitive="count_distinct"}'] > 0

    def test_counters_survive_ledger_eviction(self):
        from repro.workloads.paper_example import paper_program_corpus

        with JobManager(runners=1, keep_finished=1) as bounded:
            run_one(bounded)
            other = bounded.submit(
                build_paper_database(), corpus=paper_program_corpus()
            )
            bounded.result(other.id, timeout=30)  # evicts the first run
            assert len(bounded.jobs()) == 1
            text = render_metrics(bounded)
            assert lint_exposition(text) == []
            assert samples(text, "repro_jobs_evicted_total")[
                "repro_jobs_evicted_total"
            ] == 1
            # both runs' phases still count: the evicted job's totals
            # were folded forward, so the counter never moved backwards
            assert samples(text, "repro_phase_runs_total")[
                'repro_phase_runs_total{phase="IND-Discovery"}'
            ] == 2


class TestEndpoint:
    def test_metrics_route_serves_the_exposition(self, manager):
        server = build_server(manager, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            run_one(manager)
            host, port = server.server_address
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ) as response:
                assert response.headers["Content-Type"] == METRICS_CONTENT_TYPE
                text = response.read().decode("utf-8")
            assert lint_exposition(text) == []
            assert "repro_phase_runs_total" in text
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestLint:
    def test_accepts_a_well_formed_exposition(self):
        text = (
            "# HELP x_total A thing.\n"
            "# TYPE x_total counter\n"
            'x_total{a="b",c="d\\"e"} 4\n'
            "# HELP y A gauge.\n"
            "# TYPE y gauge\n"
            "y 1.5\n"
        )
        assert lint_exposition(text) == []

    def test_flags_missing_help_and_type(self):
        problems = lint_exposition("orphan_total 3\n")
        assert any("no TYPE" in p for p in problems)
        assert any("no HELP" in p for p in problems)

    def test_flags_bad_names_values_and_labels(self):
        text = (
            "# HELP ok A thing.\n"
            "# TYPE ok gauge\n"
            "ok notanumber\n"
            'ok{9bad="x"} 1\n'
        )
        problems = lint_exposition(text)
        assert any("bad sample value" in p for p in problems)
        assert any("bad label pair" in p for p in problems)

    def test_flags_unknown_type_and_duplicates(self):
        text = (
            "# TYPE z flavor\n"
            "# TYPE z gauge\n"
            "# HELP z A thing.\n"
            "# HELP z Again.\n"
        )
        problems = lint_exposition(text)
        assert any("unknown TYPE" in p for p in problems)
        assert any("duplicate TYPE" in p for p in problems)
        assert any("duplicate HELP" in p for p in problems)

    def test_flags_missing_trailing_newline(self):
        assert any(
            "newline" in p
            for p in lint_exposition("# HELP a A.\n# TYPE a gauge\na 1")
        )
