"""S11 — the job service's results cache.

**The job cache collapses duplicate work** — resubmitting the same
(database fingerprint, workload, config) triple must be answered from
the ledger orders of magnitude faster than the original run, sharing
the original result object outright.

Like S7/S10 this file runs as a plain smoke test with
``time.perf_counter`` loops, not the pytest-benchmark fixture.
"""

import time

from benchmarks.conftest import report
from repro.service.jobs import JobManager
from repro.workloads.scenario import ScenarioConfig, build_scenario

#: the s3 regression-gate scenario at quick scale
SCENARIO = ScenarioConfig(
    seed=700,
    n_entities=5,
    n_one_to_many=4,
    n_many_to_many=1,
    merges=2,
    parent_rows=20,
)


def test_s11_job_cache_answers_duplicates_instantly():
    """The ledger serves a duplicate submission without re-running."""
    scenario = build_scenario(SCENARIO)
    twin = build_scenario(SCENARIO)
    with JobManager(runners=1) as manager:
        first = manager.submit(scenario.database, corpus=scenario.corpus,
                               config={"expert": scenario.expert})
        start = time.perf_counter()
        result = manager.result(first.id, timeout=120)
        cold = time.perf_counter() - start

        start = time.perf_counter()
        second = manager.submit(twin.database, corpus=twin.corpus,
                                config={"expert": twin.expert})
        warm = time.perf_counter() - start

        assert second.cached
        assert manager.result(second.id) is result
    report(
        "S11 — duplicate submission, cold run vs cache hit",
        ["path", "wall ms"],
        [
            ["cold run", f"{cold * 1000:.1f}"],
            ["cache hit", f"{warm * 1000:.2f}"],
        ],
    )
    assert warm < cold
