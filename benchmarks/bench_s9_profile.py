"""S9 — profiling must be a pure view over the event stream.

Like ``cost_report_from_trace``, the hotspot profile, the flamegraph
exporter and the trace diff engine are *aggregations of recorded
data*: computing them after a run must issue **zero** extra extension
queries, append no event to the trace, and leave every pipeline
artifact untouched.  The opt-in tracemalloc mode may slow the run
(that is its documented price) but must not change the query stream
either.

Like S7/S8, plain ``time.perf_counter`` min-of-N loops — CI runs this
as a smoke test without the pytest-benchmark fixture.
"""

import time

from benchmarks.conftest import report
from repro.core import DBREPipeline
from repro.eer.render import render_text
from repro.obs import Tracer, live_records, metrics_from_stats
from repro.obs.profile import (
    collapsed_stacks,
    diff_views,
    profile_from_records,
    view_from_export,
)
from repro.workloads.scenario import ScenarioConfig, build_scenario

ROUNDS = 5

SCENARIO = ScenarioConfig(
    seed=700,
    n_entities=5,
    n_one_to_many=4,
    n_many_to_many=1,
    merges=2,
    parent_rows=20,
)


def _run(profile_memory=False):
    scenario = build_scenario(SCENARIO)
    tracer = Tracer(profile_memory=profile_memory)
    pipeline = DBREPipeline(scenario.database.copy(), scenario.expert, tracer=tracer)
    start = time.perf_counter()
    result = pipeline.run(corpus=scenario.corpus)
    wall = (time.perf_counter() - start) * 1000.0
    return result, tracer, wall


def _observable(result):
    return (
        [repr(i) for i in result.inds],
        [repr(f) for f in result.fds],
        [repr(i) for i in result.ric],
        render_text(result.eer),
        result.extension_queries,
        result.expert_decisions,
    )


def test_s9_profiling_issues_no_extension_queries():
    """Aggregating, exporting and diffing touch the backend zero times."""
    result, tracer, _ = _run()
    queries_before = result.extension_queries
    events_before = len(tracer.events)
    spans_before = len(tracer.spans)

    records = live_records(tracer.live_bus)
    profile = profile_from_records(records)
    stacks = collapsed_stacks(records)
    view = view_from_export("repro/live@1", records)
    diff = diff_views(view, view)

    # a pure view: the recorded streams and the query counter are untouched
    assert result.extension_queries == queries_before
    assert tracer.live_bus.last_seq == len(records) - 1
    assert len(tracer.events) == events_before
    assert len(tracer.spans) == spans_before
    assert profile["totals"]["queries"] == events_before
    assert all(abs(row["delta_ms"]) == 0.0 for row in diff["primitives"])
    report(
        "S9 — profile coverage, S3 scenario",
        ["figure", "value"],
        [
            ["extension queries", queries_before],
            ["trace events", events_before],
            ["hotspot span names", len(profile["spans"])],
            ["collapsed stacks", len(stacks)],
        ],
    )


def test_s9_profile_totals_agree_with_metrics():
    """The hotspot view and the metrics document never disagree."""
    _, tracer, _ = _run()
    records = live_records(tracer.live_bus)
    profile = profile_from_records(records)
    metrics = metrics_from_stats(tracer.live_bus.stats())
    assert profile["totals"]["queries"] == metrics["totals"]["queries"]
    assert profile["totals"]["spans"] == metrics["totals"]["spans"]
    for primitive, stats in metrics["primitives"].items():
        hot = profile["primitives"][primitive]
        assert hot["calls"] == stats["calls"]
        assert hot["cache_hits"] == stats["cache_hits"]
        assert hot["rows_touched"] == stats["rows_touched"]
    # per-phase self time never exceeds the phase's inclusive time
    for phase, stats in profile["phases"].items():
        assert 0.0 <= stats["self_ms"] <= stats["inclusive_ms"] + 1e-6


def test_s9_aggregation_cost_is_a_fraction_of_the_run():
    """Computing the full profile suite costs less than one pipeline run."""
    _, tracer, run_wall = _run()
    records = live_records(tracer.live_bus)
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        profile_from_records(records)
        collapsed_stacks(records)
        best = min(best, (time.perf_counter() - start) * 1000.0)
    report(
        "S9 — aggregation cost, S3 scenario (best of 5)",
        ["figure", "wall ms"],
        [
            ["pipeline run", f"{run_wall:.2f}"],
            ["profile + collapsed stacks", f"{best:.2f}"],
        ],
    )
    assert best < run_wall


def test_s9_memory_profiling_changes_no_observable():
    """tracemalloc mode: same queries, same artifacts, peaks recorded."""
    plain, _, _ = _run()
    profiled, tracer, _ = _run(profile_memory=True)
    assert _observable(plain) == _observable(profiled)
    phases = [s for s in tracer.spans if s.kind == "phase"]
    assert phases
    for span in phases:
        assert span.attributes["mem_peak_kb"] >= 0.0
        assert span.attributes["mem_current_kb"] >= 0.0
    root = next(s for s in tracer.spans if s.parent_id is None)
    # the propagated global peak: the root sees at least any phase's peak
    assert root.attributes["mem_peak_kb"] >= max(
        s.attributes["mem_peak_kb"] for s in phases
    )
    report(
        "S9 — tracemalloc peaks per phase, S3 scenario",
        ["span", "peak KiB"],
        [[s.name, s.attributes["mem_peak_kb"]] for s in phases],
    )
