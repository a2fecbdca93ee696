"""S11 — the job service's results cache.

**The job cache collapses duplicate work** — resubmitting the same
(database fingerprint, workload, config) triple must be answered from
the ledger orders of magnitude faster than the original run, sharing
the original result object outright.  Two exact checks guard the
fingerprint behind the cache key, with no timing bound: a row-permuted
copy of the database is a cache hit (the method reads each extension as
a bag), and a repeat submit of an unchanged database scans no row (each
relation's digest is memoised under the backend's write token).

Like S7/S10 this file runs as a plain smoke test with
``time.perf_counter`` loops, not the pytest-benchmark fixture.
"""

import time

from benchmarks.conftest import report
from repro.backends import MemoryBackend
from repro.relational import Database
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


class CountingBackend:
    """A memory backend that counts its ``rows`` scans."""

    def __init__(self) -> None:
        self._inner = MemoryBackend()
        self.scans = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def rows(self, relation):
        self.scans += 1
        return self._inner.rows(relation)


def reload(source: Database, backend, reverse: bool = False) -> Database:
    """*source*'s extension in a new database on *backend*."""
    database = Database(source.schema.copy(), backend=backend)
    for name in source.schema.relation_names:
        rows = list(source.backend.rows(name))
        database.insert_many(name, rows[::-1] if reverse else rows)
    return database


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

        permuted = reload(twin.database, MemoryBackend(), reverse=True)
        assert manager.submit(permuted, corpus=twin.corpus,
                              config={"expert": twin.expert}).cached

        counting = CountingBackend()
        unchanged = reload(twin.database, counting)
        scans = []
        for _ in range(2):
            counting.scans = 0
            assert manager.submit(unchanged, corpus=twin.corpus,
                                  config={"expert": twin.expert}).cached
            scans.append(counting.scans)
        relations = len(unchanged.schema.relation_names)
        assert scans == [relations, 0], "a repeat submit rescanned the extension"
    report(
        "S11 — duplicate submission, cold run vs cache hit",
        ["path", "wall ms"],
        [
            ["cold run", f"{cold * 1000:.1f}"],
            ["cache hit", f"{warm * 1000:.2f}"],
        ],
    )
    assert warm < cold
