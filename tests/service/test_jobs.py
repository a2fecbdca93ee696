"""Job-manager lifecycle edges: cancel, cache, invalidation, failure."""

import sys
import threading

import pytest

from repro.backends.memory import MemoryBackend
from repro.exceptions import RunCancelled, UnknownJobError
from repro.service.export import (
    JOBS_FORMAT,
    jobs_to_records,
    read_jobs_jsonl,
    write_jobs_jsonl,
)
from repro.service.jobs import (
    JobManager,
    database_fingerprint,
    workload_fingerprint,
)
from repro.workloads.paper_example import (
    build_paper_database,
    paper_equijoins,
    paper_program_corpus,
)


class GateBackend(MemoryBackend):
    """A memory backend whose first primitive call blocks on an event.

    ``entered`` fires when a run reaches the extension; the run then
    waits for ``release`` — the deterministic window the mid-run tests
    need for cancelling (or failing) a job *while it is running*.
    """

    def __init__(self, entered=None, release=None, poison=False):
        super().__init__()
        self.entered = entered if entered is not None else threading.Event()
        self.release = release if release is not None else threading.Event()
        self.poison = poison

    def spawn(self):
        # pipeline copies share the gate, so the copy still blocks
        return GateBackend(self.entered, self.release, self.poison)

    def count_distinct(self, relation, attrs):
        self.entered.set()
        if not self.release.wait(timeout=30):
            raise AssertionError("gate never released")
        if self.poison:
            raise RuntimeError("poisoned extension")
        return super().count_distinct(relation, attrs)


def gated_database(poison=False):
    backend = GateBackend(poison=poison)
    return build_paper_database(backend=backend), backend


@pytest.fixture
def manager():
    with JobManager(runners=1) as mgr:
        yield mgr


class TestLifecycle:
    def test_submit_runs_to_done(self, manager):
        job = manager.submit(build_paper_database(), equijoins=paper_equijoins())
        result = manager.result(job.id, timeout=30)
        assert job.state == "done"
        assert job.finished
        assert not job.cached
        assert len(result.ric) > 0
        assert job.started_at and job.finished_at
        # inputs are released once the run is over
        assert job.database is None

    def test_status_reports_summary(self, manager):
        job = manager.submit(build_paper_database(), equijoins=paper_equijoins())
        manager.result(job.id, timeout=30)
        record = manager.status(job.id)
        assert record["state"] == "done"
        assert record["summary"]["ric"] > 0
        assert record["database_fingerprint"] == job.key[0]

    def test_unknown_job_raises(self, manager):
        with pytest.raises(UnknownJobError):
            manager.status("job-999")
        with pytest.raises(UnknownJobError):
            manager.cancel("job-999")

    def test_submit_needs_exactly_one_workload(self, manager):
        with pytest.raises(ValueError):
            manager.submit(build_paper_database())
        with pytest.raises(ValueError):
            manager.submit(
                build_paper_database(),
                corpus=paper_program_corpus(),
                equijoins=paper_equijoins(),
            )

    def test_failed_job_carries_the_error(self, manager):
        db, backend = gated_database(poison=True)
        backend.release.set()  # never block, just poison
        job = manager.submit(db, equijoins=paper_equijoins())
        with pytest.raises(RuntimeError, match="poisoned extension"):
            manager.result(job.id, timeout=30)
        assert job.state == "failed"
        assert "poisoned extension" in job.error


class TestCancellation:
    def test_cancel_while_queued_never_runs(self, manager):
        # the single runner is pinned inside the gated job ...
        gated, backend = gated_database()
        running = manager.submit(gated, equijoins=paper_equijoins())
        assert backend.entered.wait(timeout=10)
        # ... so this one is still queued and cancellable
        queued = manager.submit(
            build_paper_database(), equijoins=paper_equijoins()
        )
        assert queued.state == "queued"
        assert manager.cancel(queued.id) is True
        assert queued.state == "cancelled"
        assert queued.started_at is None
        backend.release.set()
        assert manager.result(running.id, timeout=30) is not None
        with pytest.raises(RunCancelled):
            manager.result(queued.id, timeout=5)

    def test_cancel_mid_run_unwinds_at_phase_boundary(self, manager):
        db, backend = gated_database()
        job = manager.submit(db, equijoins=paper_equijoins())
        assert backend.entered.wait(timeout=10)
        assert job.state == "running"
        assert manager.cancel(job.id) is True
        backend.release.set()
        with pytest.raises(RunCancelled):
            manager.result(job.id, timeout=30)
        assert job.state == "cancelled"
        assert job.result is None

    def test_cancel_finished_job_is_a_noop(self, manager):
        job = manager.submit(build_paper_database(), equijoins=paper_equijoins())
        manager.result(job.id, timeout=30)
        assert manager.cancel(job.id) is False
        assert job.state == "done"

    def test_shutdown_cancels_the_queue(self):
        mgr = JobManager(runners=1)
        gated, backend = gated_database()
        running = mgr.submit(gated, equijoins=paper_equijoins())
        assert backend.entered.wait(timeout=10)
        queued = mgr.submit(build_paper_database(), equijoins=paper_equijoins())
        threading.Timer(0.2, backend.release.set).start()
        mgr.shutdown()
        assert queued.state == "cancelled"
        assert running.finished
        with pytest.raises(RuntimeError):
            mgr.submit(build_paper_database(), equijoins=paper_equijoins())


class TestResultsCache:
    def test_duplicate_submission_hits_the_cache(self, manager):
        first = manager.submit(build_paper_database(), equijoins=paper_equijoins())
        result = manager.result(first.id, timeout=30)
        second = manager.submit(build_paper_database(), equijoins=paper_equijoins())
        assert second.cached
        assert second.state == "done"
        assert manager.result(second.id) is result
        assert second.key == first.key

    def test_database_fingerprint_invalidates(self, manager):
        first = manager.submit(build_paper_database(), equijoins=paper_equijoins())
        manager.result(first.id, timeout=30)
        # one extra row changes the extension, so the content hash
        # differs and the cache must not serve the stale result
        touched = build_paper_database()
        row = list(next(iter(touched.backend.rows("Person"))))
        row[0] = 999_999
        touched.insert("Person", row)
        second = manager.submit(touched, equijoins=paper_equijoins())
        assert second.key[0] != first.key[0]
        assert not second.cached
        manager.result(second.id, timeout=30)
        assert second.state == "done"

    def test_config_change_misses_the_cache(self, manager):
        first = manager.submit(
            build_paper_database(), equijoins=paper_equijoins(),
        )
        manager.result(first.id, timeout=30)
        second = manager.submit(
            build_paper_database(), equijoins=paper_equijoins(),
            config={"translate": False},
        )
        assert not second.cached
        manager.result(second.id, timeout=30)
        # and the untranslated twin now caches independently
        third = manager.submit(
            build_paper_database(), equijoins=paper_equijoins(),
            config={"translate": False},
        )
        assert third.cached

    def test_workload_fingerprint_separates_queries(self, manager):
        everything = paper_equijoins()
        first = manager.submit(build_paper_database(), equijoins=everything)
        manager.result(first.id, timeout=30)
        second = manager.submit(
            build_paper_database(), equijoins=everything[:-1]
        )
        assert second.key[1] != first.key[1]
        assert not second.cached
        manager.result(second.id, timeout=30)

    def test_queued_duplicate_is_served_at_dequeue(self, manager):
        # pin the single runner so two identical jobs queue up together
        gated, backend = gated_database()
        pin = manager.submit(
            gated, equijoins=paper_equijoins(), config={"gate": 1}
        )
        assert backend.entered.wait(timeout=10)
        first = manager.submit(build_paper_database(), equijoins=paper_equijoins())
        second = manager.submit(build_paper_database(), equijoins=paper_equijoins())
        assert not second.cached  # nothing done at submit time
        backend.release.set()
        manager.result(pin.id, timeout=30)
        result = manager.result(first.id, timeout=30)
        # the twin never runs: the runner serves it from the cache
        assert manager.result(second.id, timeout=30) is result
        assert second.cached
        assert second.started_at is None

    def test_cached_jobs_are_ledger_entries(self, manager):
        first = manager.submit(build_paper_database(), equijoins=paper_equijoins())
        manager.result(first.id, timeout=30)
        second = manager.submit(build_paper_database(), equijoins=paper_equijoins())
        records = jobs_to_records(manager)
        assert records[0]["jobs"] == 2
        assert records[0]["cached"] == 1
        assert records[2]["id"] == second.id
        assert records[2]["cached"] is True


class TestFingerprints:
    def test_database_fingerprint_is_content_addressed(self):
        assert database_fingerprint(build_paper_database()) == \
            database_fingerprint(build_paper_database())

    def test_concurrent_fingerprints_never_memoise_a_stale_digest(self):
        """Readers racing a writer on one backend: once the writes stop,
        the memoised fingerprint must equal a cold one."""
        from repro.relational import Database

        db = build_paper_database()
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                database_fingerprint(db)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for thread in readers:
                thread.start()
            for i in range(300):
                db.insert("Person", [1000 + i, f"p{i}", "rue", i, "69100", "Rhone"])
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        cold = Database(db.schema.copy(), backend=MemoryBackend())
        for name in db.schema.relation_names:
            cold.insert_many(name, db.backend.rows(name))
        assert database_fingerprint(db) == database_fingerprint(cold)

    def test_workload_fingerprint_is_order_insensitive(self):
        joins = paper_equijoins()
        assert workload_fingerprint(equijoins=joins) == \
            workload_fingerprint(equijoins=list(reversed(joins)))

    def test_corpus_fingerprint_sees_source_changes(self):
        a = paper_program_corpus()
        b = paper_program_corpus()
        assert workload_fingerprint(corpus=a) == workload_fingerprint(corpus=b)
        b.add_source("extra.sql", "SELECT 1;")
        assert workload_fingerprint(corpus=a) != workload_fingerprint(corpus=b)


class TestExport:
    def test_round_trip(self, manager, tmp_path):
        job = manager.submit(build_paper_database(), equijoins=paper_equijoins())
        manager.result(job.id, timeout=30)
        manager.submit(build_paper_database(), equijoins=paper_equijoins())
        path = str(tmp_path / "jobs.jsonl")
        written = write_jobs_jsonl(manager, path)
        back = read_jobs_jsonl(path)
        assert back == written
        assert back[0]["format"] == JOBS_FORMAT

    def test_header_counts_are_validated(self, tmp_path):
        path = str(tmp_path / "broken.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                '{"type": "header", "format": "%s", "jobs": 2, '
                '"states": {}, "cached": 0}\n' % JOBS_FORMAT
            )
        with pytest.raises(ValueError, match="claims 2"):
            read_jobs_jsonl(path)

    def test_wrong_format_tag_is_rejected(self, tmp_path):
        path = str(tmp_path / "other.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"type": "header", "format": "repro/trace@1"}\n')
        with pytest.raises(ValueError, match="not a repro/jobs@1"):
            read_jobs_jsonl(path)


class TestLedgerEviction:
    """keep_finished bounds the ledger; evicted totals fold forward."""

    def test_oldest_finished_jobs_are_retired(self):
        with JobManager(runners=1, keep_finished=2) as manager:
            first = manager.submit(
                build_paper_database(), equijoins=paper_equijoins()
            )
            manager.result(first.id, timeout=30)
            twin = manager.submit(
                build_paper_database(), equijoins=paper_equijoins()
            )
            assert twin.cached
            third = manager.submit(
                build_paper_database(), corpus=paper_program_corpus()
            )
            manager.result(third.id, timeout=30)
            ids = [job.id for job in manager.jobs()]
            assert len(ids) == 2
            assert first.id not in ids
            with pytest.raises(UnknownJobError):
                manager.status(first.id)
            evicted = manager.evicted()
            assert evicted["jobs"] == 1
            # the retired run's telemetry totals were folded forward
            assert evicted["stats"].phase_runs.get("IND-Discovery") == 1

    def test_evicting_a_cache_source_purges_its_cache_entry(self):
        with JobManager(runners=1, keep_finished=1) as manager:
            first = manager.submit(
                build_paper_database(), equijoins=paper_equijoins()
            )
            manager.result(first.id, timeout=30)
            other = manager.submit(
                build_paper_database(), corpus=paper_program_corpus()
            )
            manager.result(other.id, timeout=30)  # evicts first
            assert first.id not in [job.id for job in manager.jobs()]
            # the cache entry pointing at the evicted job is gone: the
            # same key re-runs instead of dangling
            again = manager.submit(
                build_paper_database(), equijoins=paper_equijoins()
            )
            result = manager.result(again.id, timeout=30)
            assert not again.cached
            assert result is not None

    def test_unbounded_manager_never_evicts(self, manager):
        job = manager.submit(
            build_paper_database(), equijoins=paper_equijoins()
        )
        manager.result(job.id, timeout=30)
        assert manager.evicted()["jobs"] == 0
        assert [j.id for j in manager.jobs()] == [job.id]
