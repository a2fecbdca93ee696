"""S14 — run-archive durability.

Two claims pay for the persistent observability tier:

1. **Archival is faithful and off the query path** — writing a finished
   run through to a ``repro/archive@1`` directory and restoring it in a
   fresh manager reproduces the ledger record and re-seeds the results
   cache (a repeat submission is answered ``cached`` with **zero** new
   extension queries), and the store+restore round-trip costs file I/O
   only — the ``s3-all-features-head`` entry in the regression gate
   archives and restores its run and must ask exactly the plain s3
   head's queries, so durability can never make the method chattier.
2. **Restart survives SIGKILL semantics** — the index line is the
   commit point: a run directory without its index line (the crash
   window) is ignored on restore, never half-loaded; this file
   truncates the index mid-entry and asserts the archive still
   restores what was committed.

Like S7/S10/S13 this file runs as a plain smoke test with
``time.perf_counter`` loops, not the pytest-benchmark fixture.
"""

import os
import time

from benchmarks.conftest import report
from repro.obs.archive import RunArchive
from repro.service.jobs import JobManager
from repro.workloads.scenario import ScenarioConfig, build_scenario

#: the s3/s14 regression-gate scenario at quick scale
SCENARIO = ScenarioConfig(
    seed=700,
    n_entities=5,
    n_one_to_many=4,
    n_many_to_many=1,
    merges=2,
    parent_rows=20,
)


def _scenario_job(manager):
    scenario = build_scenario(SCENARIO)
    job = manager.submit(
        scenario.database,
        corpus=scenario.corpus,
        config={"expert": scenario.expert},
        label="s14",
    )
    manager.result(job.id, timeout=120)
    deadline = time.monotonic() + 30
    while job.archived is None and time.monotonic() < deadline:
        time.sleep(0.02)
    return job


def test_s14_archive_round_trip_reseeds_cache(tmp_path):
    """Store → restore → cached resubmit, with zero new queries."""
    archive = RunArchive(str(tmp_path))
    with JobManager(runners=1, archive=archive) as manager:
        job = _scenario_job(manager)
        assert job.archived, "finished run never reached the archive"
        record = job.as_record()
        run_wall = (job.finished_at or 0) - (job.started_at or 0)

    start = time.perf_counter()
    restored_manager = JobManager(runners=1, archive=RunArchive(str(tmp_path)))
    restore_s = time.perf_counter() - start
    with restored_manager:
        restored = restored_manager.restored()
        assert restored["jobs"] == 1
        again = restored_manager.job(job.id).as_record()
        assert again["state"] == record["state"]
        assert again["summary"] == record["summary"]
        scenario = build_scenario(SCENARIO)
        hit = restored_manager.submit(
            scenario.database,
            corpus=scenario.corpus,
            config={"expert": scenario.expert},
            label="s14-again",
        )
        assert hit.cached and hit.state == "done", (
            "a restored cache did not answer the repeat submission"
        )
        assert hit.trace is None, "a cache hit ran the pipeline"
    report(
        "S14 — archive round trip (store at finish, restore at startup)",
        ["observable", "value"],
        [
            ["run wall s", f"{run_wall:.2f}"],
            ["restore s", f"{restore_s:.4f}"],
            ["restored jobs", str(restored["jobs"])],
            ["repeat submit", "cached, 0 queries"],
        ],
    )


def test_s14_truncated_index_restores_committed_prefix(tmp_path):
    """The index append is the commit point: a torn line loses one run,
    never the archive."""
    archive = RunArchive(str(tmp_path))
    with JobManager(runners=1, archive=archive) as manager:
        job = _scenario_job(manager)
        assert job.archived
    index_path = os.path.join(str(tmp_path), "index.jsonl")
    with open(index_path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    # simulate a crash mid-append: the last entry is torn
    with open(index_path, "w", encoding="utf-8") as handle:
        handle.writelines(lines[:-1])
        handle.write(lines[-1][: len(lines[-1]) // 2])
    with JobManager(runners=1, archive=RunArchive(str(tmp_path))) as again:
        assert again.restored()["jobs"] == 0, (
            "a torn index line restored a phantom run"
        )
    report(
        "S14 — torn index line (crash window)",
        ["observable", "value"],
        [
            ["index lines kept", str(len(lines) - 1)],
            ["restored jobs", "0 (uncommitted run ignored)"],
        ],
    )
