"""S8 — the provenance ledger must be (nearly) free.

The lineage DAG is pure bookkeeping over counts the phases already
computed: a provenance-enabled run must issue **zero** extra extension
queries and ask zero extra expert questions, its dependency sets must be
bit-identical to a disabled run, and the wall-clock overhead on an
S3-like end-to-end scenario must stay under ``OVERHEAD_TOLERANCE``
(plus a small absolute epsilon, so sub-millisecond timer jitter on the
small CI scenario cannot fail the bench).

Like S7, this file uses plain ``time.perf_counter`` min-of-N loops so
CI can run it as a smoke test without the pytest-benchmark fixture.
"""

import time

from benchmarks.conftest import report
from repro.core import DBREPipeline
from repro.eer.render import render_text
from repro.obs.provenance import provenance_records
from repro.workloads.scenario import ScenarioConfig, build_scenario

#: provenance wall clock may exceed the disabled run by at most 5% ...
OVERHEAD_TOLERANCE = 1.05
#: ... plus this many milliseconds of absolute slack (timer noise floor)
OVERHEAD_EPSILON_MS = 5.0

ROUNDS = 5

SCENARIO = ScenarioConfig(
    seed=700,
    n_entities=5,
    n_one_to_many=4,
    n_many_to_many=1,
    merges=2,
    parent_rows=20,
)


def _run(provenance):
    scenario = build_scenario(SCENARIO)
    pipeline = DBREPipeline(
        scenario.database.copy(),
        scenario.expert,
        provenance=provenance,
    )
    start = time.perf_counter()
    result = pipeline.run(corpus=scenario.corpus)
    wall = (time.perf_counter() - start) * 1000.0
    return result, wall


def _best_wall(provenance, rounds=ROUNDS):
    return min(_run(provenance)[1] for _ in range(rounds))


def _observable(result):
    return (
        [repr(i) for i in result.inds],
        [repr(f) for f in result.fds],
        [repr(i) for i in result.ric],
        render_text(result.eer),
        result.extension_queries,
        result.expert_decisions,
    )


def test_s8_provenance_issues_no_extra_queries():
    """Same queries, same decisions, same outputs — ledger on or off."""
    enabled, _ = _run(provenance=True)
    disabled, _ = _run(provenance=False)
    assert enabled.provenance is not None and len(enabled.provenance) > 0
    assert disabled.provenance is None
    report(
        "S8 — extension accounting, S3 scenario",
        ["run", "queries", "decisions", "|RIC|", "lineage nodes"],
        [
            [
                "provenance on",
                enabled.extension_queries,
                enabled.expert_decisions,
                len(enabled.ric),
                len(enabled.provenance),
            ],
            [
                "provenance off",
                disabled.extension_queries,
                disabled.expert_decisions,
                len(disabled.ric),
                0,
            ],
        ],
    )
    assert _observable(enabled) == _observable(disabled)


def test_s8_ledger_covers_the_whole_run():
    """Every evidence reference resolves into the shared trace stream."""
    result, _ = _run(provenance=True)
    ledger = result.provenance
    records = provenance_records(ledger)
    kinds = {r["kind"] for r in records if r.get("type") == "node"}
    evidence = [
        e for node in ledger.nodes.values() for e in node.events
    ]
    report(
        "S8 — lineage coverage, S3 scenario",
        ["figure", "value"],
        [
            ["nodes", len(ledger.nodes)],
            ["edges", len(ledger.edges)],
            ["node kinds", len(kinds)],
            ["evidence refs", len(evidence)],
        ],
    )
    assert {"equijoin", "classification", "ind", "ric"} <= kinds
    assert evidence
    trace_len = len(result.trace.events)
    assert all(0 <= e["id"] < trace_len for e in evidence)


def test_s8_wall_clock_overhead_under_tolerance():
    """Ledger overhead: < 5% wall clock (best of 5) plus noise floor."""
    off_wall = _best_wall(provenance=False)
    on_wall = _best_wall(provenance=True)
    overhead = (on_wall / off_wall - 1.0) * 100.0
    report(
        "S8 — wall clock, S3 scenario (best of 5)",
        ["run", "wall ms"],
        [
            ["provenance off", f"{off_wall:.2f}"],
            ["provenance on", f"{on_wall:.2f} ({overhead:+.1f}%)"],
        ],
    )
    assert on_wall <= off_wall * OVERHEAD_TOLERANCE + OVERHEAD_EPSILON_MS
