"""End-to-end tracing on the paper's §5 worked example.

The acceptance bar for the observability layer: one pipeline run emits a
span per phase in execution order, one event per extension query from
either backend, and cost reports that are *exactly* the event stream.
"""

from __future__ import annotations

import pytest

from repro.backends import MemoryBackend, SQLiteBackend
from repro.core import DBREPipeline, ScriptedExpert
from repro.evaluation import cost_report_from_trace
from repro.obs import PHASE_NAMES, PRIMITIVES, Tracer
from repro.relational import Database
from repro.workloads.paper_example import (
    build_paper_database,
    paper_expert_script,
    paper_program_corpus,
)

BACKENDS = {"memory": MemoryBackend, "sqlite": SQLiteBackend}


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def traced_run(request):
    """One traced paper-example run per backend kind."""
    database = build_paper_database(backend=BACKENDS[request.param]())
    expert = ScriptedExpert(paper_expert_script())
    pipeline = DBREPipeline(database, expert)
    result = pipeline.run(corpus=paper_program_corpus())
    yield request.param, result
    database.close()


class TestSpans:
    def test_phases_appear_in_paper_order_under_one_root(self, traced_run):
        _, result = traced_run
        trace = result.trace
        roots = [s for s in trace.spans if s.parent_id is None]
        assert [s.name for s in roots] == ["pipeline"]
        phases = [s for s in trace.spans if s.kind == "phase"]
        assert [s.name for s in phases] == list(PHASE_NAMES)
        assert all(s.parent_id == roots[0].span_id for s in phases)

    def test_every_span_is_closed_with_a_real_duration(self, traced_run):
        _, result = traced_run
        for span in result.trace.spans:
            assert span.end is not None
            assert span.duration >= 0.0

    def test_root_span_attributes_summarize_the_run(self, traced_run):
        _, result = traced_run
        (root,) = [s for s in result.trace.spans if s.parent_id is None]
        assert root.attributes["queries"] == result.extension_queries
        assert root.attributes["decisions"] == result.expert_decisions


class TestEventStream:
    def test_events_come_from_the_selected_backend(self, traced_run):
        kind, result = traced_run
        events = result.trace.events
        assert events, "a pipeline run must issue extension queries"
        assert {e.backend for e in events} == {kind}
        assert {e.primitive for e in events} <= set(PRIMITIVES)

    def test_every_event_happened_inside_a_phase(self, traced_run):
        _, result = traced_run
        phase_ids = {s.span_id for s in result.trace.spans if s.kind == "phase"}
        assert {e.span_id for e in result.trace.events} <= phase_ids

    def test_extension_queries_equals_the_event_count(self, traced_run):
        _, result = traced_run
        assert result.extension_queries == len(result.trace.events)


class TestCostReportIsAViewOverTheStream:
    def test_trace_report_total_is_the_event_count(self, traced_run):
        _, result = traced_run
        report = cost_report_from_trace(result.trace)
        assert report.total_queries == len(result.trace.events)

    def test_per_primitive_figures_match_a_hand_count(self, traced_run):
        _, result = traced_run
        events = result.trace.events
        report = cost_report_from_trace(result.trace)
        by_primitive = {p: sum(1 for e in events if e.primitive == p) for p in PRIMITIVES}
        assert report.count_distinct_queries == by_primitive["count_distinct"]
        assert report.join_count_queries == by_primitive["join_count"]
        assert report.fd_checks == by_primitive["fd_holds"]
        assert report.inclusion_checks == by_primitive["inclusion_holds"]


class TestQueryCounter:
    @pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
    def db(self, request):
        database = build_paper_database(backend=BACKENDS[request.param]())
        yield database
        database.close()

    def test_reset_moves_the_watermark_not_the_stream(self, db):
        db.count_distinct("Department", ("emp",))
        db.counter.reset()
        assert db.counter.total() == 0
        assert len(db.tracer.events) == 1  # the stream keeps history
        db.count_distinct("Department", ("dep",))
        assert db.counter.total() == 1
        assert db.counter.count_distinct == 1

    def test_copy_records_on_its_own_tracer_by_default(self, db):
        clone = db.copy()
        clone.count_distinct("Department", ("emp",))
        assert clone.tracer is not db.tracer
        assert clone.counter.total() == 1
        assert db.counter.total() == 0

    def test_copy_can_share_a_tracer_as_the_pipeline_does(self, db):
        clone = db.copy(tracer=db.tracer)
        clone.count_distinct("Department", ("emp",))
        assert clone.tracer is db.tracer
        assert db.counter.total() == 1


def test_standalone_database_still_counts(tiny_db: Database):
    tiny_db.count_distinct("city", ("city_id",))
    tiny_db.join_count("person", ("person_city_id",), "city", ("city_id",))
    assert tiny_db.counter.count_distinct == 1
    assert tiny_db.counter.join_count == 1
    assert tiny_db.counter.total() == 2
