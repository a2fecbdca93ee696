"""The multi-job discovery manager: queued reverse-engineering runs.

One long-running process serves many discovery requests: callers
:meth:`~JobManager.submit` a (database, workload, config) triple and get
a :class:`Job` back immediately; runner threads drain the queue through
:class:`~repro.core.pipeline.DBREPipeline`; callers poll
:meth:`~JobManager.status` or block on :meth:`~JobManager.result`, and
may :meth:`~JobManager.cancel` a job while it is queued (it never runs)
or mid-run (the pipeline's ``cancel`` hook unwinds it between phases
with :class:`~repro.exceptions.RunCancelled`).

Repeat queries are served from a **results cache** keyed by

    (database fingerprint, workload fingerprint, config token)

— content hashes, not object identities, so resubmitting the same
database and programs returns the finished result without re-running
discovery, while touching a single row changes the database fingerprint
and forces a fresh run.  Like every question the method asks of the
extension (§2: distinct counts, join cardinalities, FD and inclusion
tests), the database fingerprint reads each relation as a bag: two
extensions equal up to row order share it.  Each relation's digest is
memoised on the backend under its write token, so a repeat submission
of an unchanged database rehashes no row.  The cache is consulted
twice — at submission and again when a runner dequeues the job, so a
burst of duplicate submissions still collapses to one run.  A cached
:class:`Job` is a real ledger entry (state ``done``, ``cached`` flag
set) pointing at the original result, so the ``repro/jobs@1`` export
shows cache hits explicitly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import RunCancelled, UnknownJobError
from repro.obs.live import RunStats
from repro.obs.log import get_logger, log_context
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import PipelineResult
    from repro.obs.archive import RunArchive
    from repro.obs.live import LiveBus
    from repro.programs.corpus import ProgramCorpus
    from repro.programs.equijoin import EquiJoin
    from repro.relational.database import Database

log = get_logger("jobs")

__all__ = [
    "JOB_STATES",
    "Job",
    "JobManager",
    "database_fingerprint",
    "workload_fingerprint",
]

#: every state a job can be in, in lifecycle order
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: config keys the ledger records surface; ``engine`` is no knob any
#: more, but stays so ``repro/jobs@1`` records keep their shape (it reads
#: null for new jobs and the engine name for archived ones)
_CONFIG_KEYS = ("engine", "translate")


def database_fingerprint(database: "Database") -> str:
    """A content hash of schema + extension (the cache key's first leg).

    Hashes the ``repro/schema@1`` document and, per relation, its name
    and :func:`_relation_digest`.  Any schema edit, single-value edit or
    duplicated row produces a different fingerprint; a permutation of
    a relation's rows does not, since no answer of the method depends
    on row order.

    A backend with the optional ``write_token(relation)`` member keeps
    each relation's digest in its ``fingerprint_memo`` as ``relation ->
    (write token, digest)``; a digest whose token still matches is
    reused without reading a row.  A backend without the member is
    hashed cold on every call.
    """
    from repro.storage.serialize import schema_to_dict

    backend = database.backend
    write_token = getattr(backend, "write_token", None)
    memo = getattr(backend, "fingerprint_memo", None) if write_token else None
    digest = hashlib.sha256(
        json.dumps(schema_to_dict(database.schema), sort_keys=True).encode("utf-8")
    )
    for name in database.schema.relation_names:
        digest.update(name.encode("utf-8"))
        if memo is None:
            digest.update(_relation_digest(backend.rows(name)))
            continue
        # the token is read before the rows: a write racing the scan
        # leaves a digest under an older token, which the next call
        # misses, never a stale digest under the current one
        token = write_token(name)
        cached = memo.get(name)
        if cached is None or cached[0] != token:
            cached = memo[name] = (token, _relation_digest(backend.rows(name)))
        digest.update(cached[1])
    return digest.hexdigest()


def _relation_digest(rows: Iterable[Tuple[Any, ...]]) -> bytes:
    """SHA-256 of one extension read as a bag of rows.

    The row count, then each row's ``repr`` in sorted order, one per
    line (``repr`` escapes newlines, so lines cannot run together).
    Sorting drops row order and keeps duplicates, so the digest is
    equal exactly for equal multisets of rows.  The lines are fed one
    by one rather than joined: as fast, and the sorted list is the only
    copy of the extension held at once.
    """
    lines = sorted(map(repr, rows))
    digest = hashlib.sha256(str(len(lines)).encode("utf-8"))
    for line in lines:
        digest.update(b"\n")
        digest.update(line.encode("utf-8"))
    return digest.digest()


def workload_fingerprint(
    corpus: Optional["ProgramCorpus"] = None,
    equijoins: Optional[Sequence["EquiJoin"]] = None,
) -> str:
    """A content hash of the workload (programs or a precomputed ``Q``)."""
    digest = hashlib.sha256()
    if corpus is not None:
        for program in corpus:  # the corpus iterates name-sorted
            digest.update(program.name.encode("utf-8"))
            digest.update(program.language.encode("utf-8"))
            digest.update(program.source.encode("utf-8"))
    if equijoins:
        for join in sorted(set(equijoins), key=lambda j: j.sort_key()):
            digest.update(repr(join).encode("utf-8"))
    return digest.hexdigest()


def _config_token(config: Dict[str, Any]) -> str:
    """The cache key's third leg: the run-affecting config, canonicalized.

    Every JSON-representable config value participates — translation,
    expert thresholds — so two runs that could answer
    differently never share a cache slot.  Live objects a caller tucks
    into the config (an ``expert`` instance) are not representable and
    are left out.
    """
    relevant = {}
    for key, value in config.items():
        try:
            json.dumps(value)
        except TypeError:
            continue
        relevant[key] = value
    return json.dumps(relevant, sort_keys=True)


@dataclass
class Job:
    """One submitted discovery run and its whole lifecycle."""

    id: str
    label: str
    state: str = "queued"
    cached: bool = False
    error: str = ""
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    config: Dict[str, Any] = field(default_factory=dict)
    #: the results-cache key (database fp, workload fp, config token)
    key: Tuple[str, str, str] = ("", "", "")
    result: Optional["PipelineResult"] = None
    #: the run's tracer (attached at submission for fresh runs, so the
    #: live bus history is complete from the first span, the submit's
    #: ``fingerprint``); None for cache-hit jobs, which never run, and
    #: for restored jobs, whose stream lives in the archive
    trace: Optional[Tracer] = field(default=None, repr=False)
    #: the archive content key, for jobs restored from (or answered out
    #: of) a ``repro/archive@1`` directory; their artifacts are on disk
    archived: Optional[str] = None
    #: the result summary of a restored job (its in-process
    #: :class:`PipelineResult` did not survive the original process)
    summary: Optional[Dict[str, Any]] = field(default=None, repr=False)
    #: the rendered EER text of a restored job, when archived
    eer_text: Optional[str] = field(default=None, repr=False)
    # inputs, held until the run consumes them
    database: Optional["Database"] = field(default=None, repr=False)
    corpus: Optional["ProgramCorpus"] = field(default=None, repr=False)
    equijoins: Optional[List["EquiJoin"]] = field(default=None, repr=False)
    _cancel: threading.Event = field(default_factory=threading.Event, repr=False)
    _finished: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def finished(self) -> bool:
        """Is the job in a terminal state?"""
        return self.state in ("done", "failed", "cancelled")

    @property
    def live(self) -> Optional["LiveBus"]:
        """The job's live event bus, when the job has a tracer."""
        return self.trace.live_bus if self.trace is not None else None

    def as_record(self) -> Dict[str, Any]:
        """The job's ``repro/jobs@1`` ledger record (JSON-ready)."""
        record: Dict[str, Any] = {
            "type": "job",
            "id": self.id,
            "label": self.label,
            "state": self.state,
            "cached": self.cached,
            "database_fingerprint": self.key[0],
            "workload_fingerprint": self.key[1],
            "config": {key: self.config.get(key) for key in _CONFIG_KEYS},
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error:
            record["error"] = self.error
        if self.archived:
            record["archived"] = True
        if self.state == "done" and self.result is not None:
            record["summary"] = {
                "equijoins": len(self.result.equijoins),
                "inds": len(self.result.inds),
                "fds": len(self.result.fds),
                "hidden": len(self.result.hidden),
                "ric": len(self.result.ric),
                "queries": self.result.extension_queries,
                "decisions": self.result.expert_decisions,
            }
        elif self.state == "done" and self.summary is not None:
            # a restored (or restored-cache-hit) job: the summary was
            # computed by the process that ran it and archived with it
            record["summary"] = dict(self.summary)
        return record


class JobManager:
    """Submit / status / result / cancel over queued discovery runs.

    *runners* threads drain the queue; each run gets a fresh
    :class:`~repro.core.pipeline.DBREPipeline` built from the job's
    config (``expert``, ``translate``), so one manager can serve jobs
    with different configs side by side.  Thread-safe; close with
    :meth:`shutdown` (or use as a context manager).

    *keep_finished* bounds the ledger on a long-lived service: once more
    than that many jobs sit in a terminal state, the oldest finished
    ones are evicted — their telemetry totals are folded into
    :meth:`evicted` (so ``/metrics`` counters stay monotonic), any
    results-cache entry pointing at them is purged (a resubmission of
    that key simply re-runs), and their ids stop resolving.  ``None``
    (the default) keeps every job forever, the pre-eviction behaviour.

    *archive* makes the manager durable: every fresh run that reaches
    ``done`` or ``failed`` is written through to the
    :class:`~repro.obs.archive.RunArchive` (trace, metrics, live
    capture, provenance when kept, ledger record), and at construction
    the manager **restores** the archive's runs into its ledger — their
    ids resolve again, their ``done`` entries re-seed the results cache
    (a repeat submission is a cache hit answered by a process that no
    longer exists), their live streams replay from disk, and their
    telemetry totals fold into the ``/metrics`` counters.
    """

    def __init__(
        self,
        runners: int = 1,
        keep_finished: Optional[int] = None,
        archive: Optional["RunArchive"] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: deque = deque()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._cache: Dict[Tuple[str, str, str], str] = {}
        self._ids = itertools.count(1)
        self._keep_finished = (
            max(0, keep_finished) if keep_finished is not None else None
        )
        self._evicted_jobs = 0
        self._evicted_cached = 0
        self._evicted_dropped = 0
        self._evicted_stats = RunStats()
        self._archive = archive
        self._restored_jobs = 0
        self._restored_stats = RunStats()
        self._stopping = False
        if archive is not None:
            with self._wakeup:
                self._restore(archive)
        self._runners = [
            threading.Thread(target=self._runner_loop, daemon=True, name=f"repro-runner-{i}")
            for i in range(max(1, runners))
        ]
        for thread in self._runners:
            thread.start()

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; cancel queued jobs; join the runners."""
        with self._wakeup:
            if self._stopping:
                return
            self._stopping = True
            while self._queue:
                job = self._queue.popleft()
                self._finish(job, "cancelled", error="manager shut down")
            self._wakeup.notify_all()
        if wait:
            for thread in self._runners:
                thread.join(timeout=5.0)

    # -- the public API ------------------------------------------------
    def submit(
        self,
        database: "Database",
        corpus: Optional["ProgramCorpus"] = None,
        equijoins: Optional[Sequence["EquiJoin"]] = None,
        config: Optional[Dict[str, Any]] = None,
        label: str = "",
    ) -> Job:
        """Queue one discovery run; serve repeats from the results cache.

        Exactly one of *corpus* or *equijoins* must be given (the
        pipeline's own contract).  Returns the :class:`Job` immediately;
        a cache hit comes back already ``done`` with ``cached`` set.
        """
        if (corpus is None) == (equijoins is None):
            raise ValueError("provide exactly one of corpus= or equijoins=")
        config = dict(config or {})
        # a fresh job's tracer exists before its key, so the key's cost
        # is the run's first setup span; a cache hit drops the tracer
        trace = Tracer()
        trace.live()
        with trace.span("fingerprint", kind="setup"):
            key = (
                database_fingerprint(database),
                workload_fingerprint(corpus, equijoins),
                _config_token(config),
            )
        with self._wakeup:
            if self._stopping:
                raise RuntimeError("the job manager is shut down")
            job_id = f"job-{next(self._ids)}"
            job = Job(
                id=job_id,
                label=label or job_id,
                submitted_at=time.time(),
                config=config,
                key=key,
            )
            self._jobs[job_id] = job
            self._order.append(job_id)
            source_id = self._cache.get(key)
            source = self._jobs.get(source_id) if source_id else None
            if source is not None and source.state == "done":
                job.cached = True
                job.result = source.result
                # a restored source has no in-process result; its
                # archived summary and EER text stand in for it
                job.summary = source.summary
                job.eer_text = source.eer_text
                self._finish(job, "done")
                return job
            job.database = database
            job.corpus = corpus
            job.equijoins = list(equijoins) if equijoins is not None else None
            # the live bus was attached before the fingerprint span, not
            # at run start: a watcher that subscribes while the job is
            # still queued misses nothing
            job.trace = trace
            self._queue.append(job)
            self._wakeup.notify()
            return job

    def job(self, job_id: str) -> Job:
        """The job named *job_id* (raises :class:`UnknownJobError`)."""
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(job_id) from None

    def jobs(self) -> List[Job]:
        """Every job ever submitted, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def status(self, job_id: str) -> Dict[str, Any]:
        """The ledger record of one job (state, timings, summary)."""
        return self.job(job_id).as_record()

    def result(self, job_id: str, timeout: Optional[float] = None) -> "PipelineResult":
        """Block until *job_id* finishes and return its pipeline result.

        Raises :class:`TimeoutError` if the job is still unfinished
        after *timeout* seconds, :class:`RunCancelled` for a cancelled
        job, and :class:`RuntimeError` carrying the original error
        message for a failed one.
        """
        job = self.job(job_id)
        if not job._finished.wait(timeout):
            raise TimeoutError(f"{job_id} still {job.state} after {timeout}s")
        if job.state == "cancelled":
            raise RunCancelled(f"{job_id} was cancelled")
        if job.state == "failed":
            raise RuntimeError(f"{job_id} failed: {job.error}")
        return job.result

    def cancel(self, job_id: str) -> bool:
        """Cancel *job_id*; True if the cancellation took effect.

        A queued job flips straight to ``cancelled`` and never runs; a
        running job has its cancel flag raised and unwinds at the next
        phase boundary.  Cancelling a finished job is a no-op (False).
        """
        with self._wakeup:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            if job.finished:
                return False
            if job.state == "queued":
                try:
                    self._queue.remove(job)
                except ValueError:  # a runner grabbed it concurrently
                    pass
                else:
                    self._finish(job, "cancelled")
                    return True
            job._cancel.set()
            return True

    # -- the runner side -----------------------------------------------
    def _runner_loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._stopping:
                    self._wakeup.wait()
                if self._stopping and not self._queue:
                    return
                job = self._queue.popleft()
                if job._cancel.is_set():
                    self._finish(job, "cancelled")
                    continue
                # second cache look: a twin submitted in the same burst
                # may have finished while this job sat in the queue
                source_id = self._cache.get(job.key)
                source = self._jobs.get(source_id) if source_id else None
                if source is not None and source.state == "done":
                    job.cached = True
                    job.result = source.result
                    job.summary = source.summary
                    job.eer_text = source.eer_text
                    self._finish(job, "done")
                    continue
                job.state = "running"
                job.started_at = time.time()
            self._run(job)

    def _run(self, job: Job) -> None:
        from repro.core.pipeline import DBREPipeline

        config = job.config
        with log_context(job=job.id):
            log.info(
                "job started",
                extra={"data": {"label": job.label}},
            )
            try:
                pipeline = DBREPipeline(
                    job.database,
                    expert=config.get("expert"),
                    tracer=job.trace,
                    cancel=job._cancel.is_set,
                )
                result = pipeline.run(
                    corpus=job.corpus,
                    equijoins=job.equijoins,
                    translate=bool(config.get("translate", True)),
                )
            except RunCancelled:
                with self._wakeup:
                    self._finish(job, "cancelled")
                return
            except Exception as exc:
                with self._wakeup:
                    self._finish(job, "failed", error=f"{type(exc).__name__}: {exc}")
                self._archive_store(job)
                return
            with self._wakeup:
                job.result = result
                self._finish(job, "done")
                self._cache[job.key] = job.id
            # write-through happens outside the manager lock (file I/O
            # must not stall submissions) but after the end sentinel,
            # so the archived live capture is complete
            self._archive_store(job)

    # -- the durable archive -------------------------------------------
    def _restore(self, archive: "RunArchive") -> None:
        """Rebuild the ledger and results cache from *archive* (lock held).

        Restored jobs resolve by their original ids, their ``done``
        entries re-seed the results cache, and their telemetry totals
        fold into :meth:`restored` so ``/metrics`` keeps counting work
        a previous process did.  The id counter resumes past the
        highest restored id, so new submissions never collide.
        """
        max_id = 0
        for run in archive.runs():
            record = run.record
            job_id = record.get("id", "")
            job = Job(
                id=job_id,
                label=record.get("label") or job_id,
                state=record.get("state", "done"),
                cached=bool(record.get("cached")),
                error=record.get("error", ""),
                submitted_at=record.get("submitted_at") or 0.0,
                started_at=record.get("started_at"),
                finished_at=record.get("finished_at"),
                config={
                    key: value
                    for key, value in (record.get("config") or {}).items()
                    if value is not None
                },
                key=run.cache_key,
                archived=run.key,
                summary=record.get("summary"),
                eer_text=run.eer,
            )
            job._finished.set()
            if job_id not in self._jobs:
                self._order.append(job_id)
            self._jobs[job_id] = job
            if job.state == "done":
                self._cache[job.key] = job_id
            self._restored_stats.merge(run.stats)
            self._restored_jobs += 1
            suffix = job_id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                max_id = max(max_id, int(suffix))
        if max_id:
            self._ids = itertools.count(max_id + 1)
        if self._restored_jobs:
            log.info(
                "ledger restored from archive",
                extra={"data": {"jobs": self._restored_jobs,
                                "archive": archive.root}},
            )

    def _archive_store(self, job: Job) -> None:
        """Write one finished fresh run through to the archive.

        Failures are logged, never raised: an unwritable archive
        degrades durability, it must not fail the run that finished.
        """
        if self._archive is None or job.trace is None:
            return
        try:
            from repro.obs.export import metrics_from_stats, trace_records
            from repro.obs.live import live_records

            # the bus folded every record as it was published: metrics@1
            # renders that fold, the manifest stores it
            bus = job.live
            stats = bus.stats()
            trace = trace_records(job.trace)
            metrics = metrics_from_stats(stats)
            live = live_records(bus)
            provenance = eer = None
            result = job.result
            if result is not None and result.provenance is not None:
                from repro.obs.provenance import provenance_records

                provenance = provenance_records(result.provenance)
            if result is not None and result.eer is not None:
                from repro.eer.render import render_text

                eer = render_text(result.eer)
            key = self._archive.store(
                job.as_record(),
                job.key,
                trace=trace,
                metrics=metrics,
                live=live,
                provenance=provenance,
                stats=stats,
                eer=eer,
            )
            with self._lock:
                job.archived = key
            log.info(
                "job archived",
                extra={"data": {"job": job.id, "key": key}},
            )
        except Exception as exc:
            log.warning(
                "archive write failed",
                extra={"data": {"job": job.id,
                                "error": f"{type(exc).__name__}: {exc}"}},
            )

    def replay_records(self, job: Job) -> Optional[List[Dict[str, Any]]]:
        """The archived live stream of a restored job, or None.

        Returns the capture's body records (header dropped) for a job
        restored from the archive; fresh jobs stream from their live
        bus instead, and cache-hit jobs never ran at all.
        """
        if self._archive is None or not job.archived or job.trace is not None:
            return None
        records = self._archive.read_artifact(job.archived, "live")
        if not records:
            return None
        return [r for r in records[1:] if isinstance(r, dict)]

    def restored(self) -> Dict[str, Any]:
        """What archive restoration carried into this process.

        ``jobs`` is the restored-run count; ``stats`` is the fold of
        their archived telemetry totals, which ``/metrics`` adds back
        in so counters span server restarts.
        """
        with self._lock:
            return {
                "jobs": self._restored_jobs,
                "stats": self._restored_stats.copy(),
            }

    def evicted(self) -> Dict[str, Any]:
        """What ledger eviction has retired so far.

        ``jobs``/``cached``/``dropped`` are counts; ``stats`` is the
        :class:`~repro.obs.live.RunStats` fold of every evicted job's
        telemetry totals — ``/metrics`` adds them back in so its
        counters never move backwards when the ledger is bounded.
        """
        with self._lock:
            return {
                "jobs": self._evicted_jobs,
                "cached": self._evicted_cached,
                "dropped": self._evicted_dropped,
                "stats": self._evicted_stats.copy(),
            }

    def _evict_finished(self) -> None:
        """Retire the oldest finished jobs past the cap (lock held)."""
        if self._keep_finished is None:
            return
        finished = [
            job_id for job_id in self._order if self._jobs[job_id].finished
        ]
        excess = len(finished) - self._keep_finished
        for job_id in finished[: max(0, excess)]:
            job = self._jobs.pop(job_id)
            self._order.remove(job_id)
            for key in [k for k, v in self._cache.items() if v == job_id]:
                del self._cache[key]
            bus = job.live
            if bus is not None:
                self._evicted_stats.merge(bus.stats())
                self._evicted_dropped += bus.dropped()
            self._evicted_jobs += 1
            if job.cached:
                self._evicted_cached += 1
            log.info(
                "job evicted",
                extra={"data": {"job": job_id, "state": job.state}},
            )

    def _finish(self, job: Job, state: str, error: str = "") -> None:
        """Move a job to a terminal state (caller holds the lock)."""
        job.state = state
        job.error = error
        job.finished_at = time.time()
        # drop the inputs: a finished job must not pin a whole database
        job.database = None
        job.corpus = None
        job.equijoins = None
        bus = job.live
        if bus is not None:
            # the clean end-of-run sentinel every SSE watcher tails for;
            # the bus lock never takes the manager lock, so publishing
            # under it cannot deadlock
            bus.publish("end", job=job.id, state=state, error=error or None)
        log.info(
            "job finished",
            extra={"data": {"job": job.id, "state": state,
                            "cached": job.cached, "error": error or None}},
        )
        job._finished.set()
        self._evict_finished()
