"""The durable run archive: round trips, crash windows, manager restore."""

import json
import os

import pytest

from repro.obs.archive import ARCHIVE_FORMAT, RunArchive, run_key
from repro.obs.live import RunStats
from repro.service.jobs import JobManager
from repro.workloads.paper_example import build_paper_database, paper_equijoins


def make_stats():
    stats = RunStats()
    stats.events["progress"] = 7
    stats.phase_runs["IND-Discovery"] = 1
    stats.phase_ms["IND-Discovery"] = 12.5
    stats.primitive_calls["count_distinct"] = 9
    stats.primitive_cache_hits["count_distinct"] = 4
    return stats


def store_run(archive, job_id="job-1", state="done", key=("db", "wl", "{}")):
    return archive.store(
        {"type": "job", "id": job_id, "label": job_id, "state": state,
         "cached": False, "summary": {"fds": 3}},
        key,
        trace=[{"format": "repro/trace@1"}, {"type": "span"}],
        metrics={"format": "repro/metrics@1", "totals": {}},
        live=[{"format": "repro/live@1"},
              {"type": "progress", "seq": 1},
              {"type": "end", "seq": 2, "state": state}],
        stats=make_stats(),
        eer="ENTITY a\n",
    )


class TestRunKey:
    def test_deterministic_and_content_sensitive(self):
        assert run_key("a", "b", "c") == run_key("a", "b", "c")
        assert run_key("a", "b", "c") != run_key("a", "b", "d")
        # the separator keeps ("ab","c") and ("a","bc") apart
        assert run_key("ab", "c", "") != run_key("a", "bc", "")
        assert len(run_key("a", "b", "c")) == 20


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        key = store_run(archive)
        run = archive.load(key)
        assert run is not None
        assert run.job_id == "job-1" and run.state == "done"
        assert run.cache_key == ("db", "wl", "{}")
        assert run.record["summary"] == {"fds": 3}
        assert run.eer == "ENTITY a\n"
        assert run.stats.primitive_calls["count_distinct"] == 9
        assert set(run.artifacts) == {"trace", "metrics", "live"}

    def test_artifacts_read_back(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        key = store_run(archive)
        live = archive.read_artifact(key, "live")
        assert live[0]["format"] == "repro/live@1"
        assert live[-1]["type"] == "end"
        assert archive.read_metrics(key)["format"] == "repro/metrics@1"
        assert archive.read_artifact(key, "provenance") is None

    def test_unknown_artifact_name_raises(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        with pytest.raises(ValueError):
            archive.read_artifact("whatever", "metrics")

    def test_index_resolves_latest_per_key(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        store_run(archive, job_id="job-1", state="failed")
        store_run(archive, job_id="job-2", state="done")  # same key: re-run
        entries = archive.index()
        assert len(entries) == 1
        assert entries[0]["job"] == "job-2"
        runs = archive.runs()
        assert len(runs) == 1 and runs[0].job_id == "job-2"

    def test_missing_index_is_an_empty_archive(self, tmp_path):
        assert RunArchive(str(tmp_path)).index() == []

    def test_foreign_index_is_rejected(self, tmp_path):
        path = tmp_path / "index.jsonl"
        path.write_text(json.dumps({"format": "something-else@9"}) + "\n")
        with pytest.raises(ValueError):
            RunArchive(str(tmp_path)).index()


class TestCrashWindows:
    def test_torn_index_line_loses_one_run_not_the_archive(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        store_run(archive, job_id="job-1", key=("a", "b", "c"))
        store_run(archive, job_id="job-2", key=("d", "e", "f"))
        index = os.path.join(str(tmp_path), "index.jsonl")
        with open(index, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(index, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:-1])
            handle.write(lines[-1][:10])  # the crash window: a torn append
        runs = RunArchive(str(tmp_path)).runs()
        assert [run.job_id for run in runs] == ["job-1"]

    def test_pruned_run_directory_is_skipped(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        key_a = store_run(archive, job_id="job-1", key=("a", "b", "c"))
        store_run(archive, job_id="job-2", key=("d", "e", "f"))
        # an operator reclaims space by deleting an old run directory
        manifest = os.path.join(str(tmp_path), "runs", key_a, "record.json")
        os.remove(manifest)
        runs = RunArchive(str(tmp_path)).runs()
        assert [run.job_id for run in runs] == ["job-2"]
        # the index still mentions both; load() of the pruned one is None
        assert len(archive.index()) == 2
        assert archive.load(key_a) is None


class TestManagerRestore:
    def test_ledger_cache_and_ids_survive_a_restart(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        with JobManager(runners=1, archive=archive) as manager:
            job = manager.submit(
                build_paper_database(), equijoins=paper_equijoins(),
                label="first",
            )
            manager.result(job.id, timeout=60)
            assert wait_archived(job)
            record = job.as_record()

        with JobManager(runners=1, archive=RunArchive(str(tmp_path))) as mgr:
            assert mgr.restored()["jobs"] == 1
            restored = mgr.job(job.id)
            assert restored.as_record() == record
            assert restored.archived and restored.trace is None
            # the archived live stream replays, end sentinel included
            replay = mgr.replay_records(restored)
            assert replay and replay[-1]["type"] == "end"
            # a repeat submission is a cache hit served by a dead process
            hit = mgr.submit(
                build_paper_database(), equijoins=paper_equijoins(),
                label="again",
            )
            assert hit.cached and hit.state == "done"
            assert hit.as_record()["summary"] == record["summary"]
            # the id counter resumed past the restored ids
            assert hit.id != job.id

    def test_failed_runs_restore_but_do_not_seed_the_cache(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        store_run(archive, job_id="job-1", state="failed")
        with JobManager(runners=1, archive=RunArchive(str(tmp_path))) as mgr:
            assert mgr.restored()["jobs"] == 1
            assert mgr.job("job-1").state == "failed"
            assert mgr._cache == {}

    def test_restored_stats_feed_the_metrics_totals(self, tmp_path):
        from repro.service.metrics import render_metrics

        archive = RunArchive(str(tmp_path))
        store_run(archive, job_id="job-1")
        with JobManager(runners=1, archive=RunArchive(str(tmp_path))) as mgr:
            exposition = render_metrics(mgr)
        assert "repro_jobs_restored_total 1" in exposition
        assert (
            'repro_primitive_calls_total{primitive="count_distinct"} 9'
            in exposition
        )

    def test_archive_format_tag_is_versioned(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        store_run(archive)
        with open(tmp_path / "index.jsonl", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header == {"type": "header", "format": ARCHIVE_FORMAT}


def wait_archived(job, seconds=30):
    import time

    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if job.archived:
            return True
        time.sleep(0.02)
    return False
