"""The benchmark's three workloads.

Each workload runs in the benchmark's own process as a closed loop with
one client: every call waits for the previous one.  The engine is
serial, no process pool is started, and the only extra thread is the
job manager's single runner; both threads share one processor.

- ``scan-memory`` / ``scan-sqlite``: one 20,040-row scenario, probed by
  ``DBREPipeline.run`` on the memory or SQLite backend.  Every step is
  O(rows), so backend scans, ``Database.copy`` and the expert-evidence
  scans do the work.
- ``service-wide``: four wide, small scenarios submitted through a
  ``JobManager`` with a run archive.  Per-probe overhead and the
  service's fingerprints, cache and archive do the work.

Inputs depend on two seeds: the scenario seeds fix *what* is generated
(sizes, probes, answers), and the benchmark's ``--seed`` shuffles the row
order of every relation before loading.  The method's answers do not
depend on row order, so every seed must reproduce the same IND, FD,
RIC, EER and query counts.
"""

from __future__ import annotations

import functools
import os
import random
import shutil
import sqlite3
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from normalise import Clock, Lap, timed
from repro.backends import MemoryBackend, SQLiteBackend
from repro.core import DBREPipeline
from repro.eer.render import render_text
from repro.evaluation.schema_match import score_schema_recovery
from repro.obs.archive import RunArchive
from repro.relational.database import Database
from repro.service.jobs import JobManager
from repro.workloads.scenario import ScenarioConfig, build_scenario
from spans import QUEUE_WAIT

#: the scan scenario: 20,040 rows, largest relation 9,000 (seed 900)
SCAN_CONFIG = dict(n_entities=7, n_one_to_many=6, merges=2, parent_rows=1000)
#: the wide scenario: 25-27 equi-joins, at most 1,200 rows (seeds 1-4)
WIDE_CONFIG = dict(
    n_entities=30, n_one_to_many=26, n_many_to_many=4, merges=8, parent_rows=5
)

#: a result or archive write that takes longer than this counts as failed
RESULT_TIMEOUT_S = 60.0


def signature(result) -> Tuple:
    """What every sample must reproduce: IND, FD, RIC, EER and the counts."""
    return (
        tuple(repr(ind) for ind in result.inds),
        tuple(repr(fd) for fd in result.fds),
        tuple(repr(ric) for ric in result.ric),
        render_text(result.eer),
        result.extension_queries,
        result.expert_decisions,
    )


class OutputMismatch(Exception):
    """A sample's outputs differ from the warm-up run's."""


@dataclass
class Scenario:
    """One generated scenario, loaded in shuffled row order."""

    seed: int
    database: Database
    corpus: Any
    expert: Any
    truth: Any
    rows: int
    reference: Optional[Tuple] = None
    recovery: float = 0.0
    summary: Optional[Dict[str, Any]] = None

    @property
    def queries(self) -> int:
        return self.reference[4]

    @property
    def decisions(self) -> int:
        return self.reference[5]


def load(seed: int, generated, backend, shuffle_seed: int) -> Scenario:
    """Load the *generated* scenario into *backend*, rows shuffled."""
    source = generated.database
    database = Database(source.schema.copy(), backend=backend)
    rng = random.Random(shuffle_seed * 1_000_003 + seed)
    rows = 0
    for name in source.schema.relation_names:
        values = list(source.backend.rows(name))
        rng.shuffle(values)
        database.insert_many(name, values)
        rows += len(values)
    return Scenario(
        seed=seed,
        database=database,
        corpus=generated.corpus,
        expert=generated.expert,
        truth=generated.truth,
        rows=rows,
    )


def await_archived(job) -> None:
    """Wait until the runner thread has written *job* to the archive."""
    deadline = time.monotonic() + RESULT_TIMEOUT_S
    while job.archived is None:
        if time.monotonic() > deadline:
            raise TimeoutError(f"{job.id} was never archived")
        time.sleep(0.0005)


def _shared_sqlite() -> SQLiteBackend:
    """A SQLite store the manager's runner thread may read as well."""
    connection = sqlite3.connect(
        ":memory:", isolation_level=None, check_same_thread=False
    )
    return SQLiteBackend(connection=connection)


@dataclass
class RunInfo:
    """What a fresh run left behind, for the traced run's layer table."""

    result: Any
    queue_wait_s: float = 0.0
    live_events: int = 0


@dataclass
class Step:
    """One bracketed sample: *body* times one lap per entry of *checks*.

    Each check validates the result of the lap of its kind and raises
    on a mismatch.
    """

    label: str
    body: Callable[[Clock], Sequence[Lap]]
    checks: Dict[str, Callable[[Any], None]] = field(default_factory=dict)


class Workload:
    """Set-up, one cycle of samples, tear-down."""

    name = ""
    default_seeds: Tuple[int, ...] = ()
    config: Dict[str, int] = {}

    def __init__(self, scenario_seeds, shuffle_seed: int, workdir: str) -> None:
        self.scenario_seeds = tuple(scenario_seeds or self.default_seeds)
        self.shuffle_seed = shuffle_seed
        self.workdir = workdir
        self.scenarios: List[Scenario] = []
        self.manager: Optional[JobManager] = None
        #: a span recorder while a traced cycle runs, else None
        self.recorder = None
        self.submits = 0
        self.cached_submits = 0
        self.archive_bytes = 0
        self.archive_stores = 0

    def backend(self):
        return MemoryBackend()

    def setup_steps(self) -> List[Callable[[], None]]:
        """The set-up, in pieces that are timed one bracket each.

        Inputs generated, then loaded into the workload's backend, for
        each scenario; the manager started; one warm-up run per scenario
        (not a sample).  The machine's speed drifts within a second, so
        one bracket around a whole set-up of several would track it
        worse than one around each piece.
        """
        self.scenarios = []
        generated = {}

        def generate(seed: int) -> None:
            generated[seed] = build_scenario(ScenarioConfig(seed=seed, **self.config))

        def insert(seed: int) -> None:
            self.scenarios.append(
                load(seed, generated.pop(seed), self.backend(), self.shuffle_seed))

        steps: List[Callable[[], None]] = []
        for seed in self.scenario_seeds:
            steps += [functools.partial(generate, seed), functools.partial(insert, seed)]
        steps.append(self._start)
        steps += [functools.partial(self._warm_up, index)
                  for index in range(len(self.scenario_seeds))]
        return steps

    def _warm_up(self, index: int):
        scenario = self.scenarios[index]
        job = self._submit(scenario)
        result = self.manager.result(job.id, RESULT_TIMEOUT_S)
        scenario.reference = signature(result)
        scenario.recovery = score_schema_recovery(
            scenario.truth, result.restructured
        ).recovery_rate
        scenario.summary = job.as_record()["summary"]
        return job

    def cycle(self) -> List[Step]:
        raise NotImplementedError

    def end_cycle(self) -> None:
        """Untimed work after a cycle's samples, and after a set-up."""

    def teardown(self) -> None:
        self._stop()
        for scenario in self.scenarios:
            scenario.database.close()
        self.scenarios = []

    def _start(self) -> None:
        self.manager = JobManager(runners=1)

    def _stop(self) -> None:
        if self.manager is not None:
            self.manager.shutdown()
            self.manager = None

    # -- shared pieces -------------------------------------------------
    def _submit(self, scenario: Scenario):
        return self.manager.submit(
            scenario.database,
            corpus=scenario.corpus,
            config={"expert": scenario.expert},
            label=f"scenario-{scenario.seed}",
        )

    def _check_run(self, scenario: Scenario) -> Callable[[Any], None]:
        def check(info: RunInfo) -> None:
            if signature(info.result) != scenario.reference:
                raise OutputMismatch(
                    f"scenario {scenario.seed}: IND/FD/RIC/EER or counts "
                    f"differ from the warm-up run"
                )

        return check

    def _check_hit(self, scenario: Scenario) -> Callable[[Any], None]:
        def check(job) -> None:
            self.submits += 1
            if not job.cached or job.state != "done":
                raise OutputMismatch(
                    f"scenario {scenario.seed}: duplicate submit was not "
                    f"answered from the results cache ({job.state})"
                )
            self.cached_submits += 1
            if job.as_record().get("summary") != scenario.summary:
                raise OutputMismatch(
                    f"scenario {scenario.seed}: duplicate submit returned "
                    f"another summary than its source job"
                )

        return check


class ScanWorkload(Workload):
    """A 20k-row scenario on one backend.

    ``run`` laps are direct ``DBREPipeline.run`` calls; ``hit`` laps are
    duplicate submits of the same database to a manager whose cache the
    warm-up run seeded, so they price the fingerprint of 20k rows.
    """

    default_seeds = (900,)
    config = SCAN_CONFIG

    def __init__(self, name: str, backend_factory, *args) -> None:
        super().__init__(*args)
        self.name = name
        self._backend_factory = backend_factory

    def backend(self):
        return self._backend_factory()

    def cycle(self) -> List[Step]:
        steps = []
        for scenario in self.scenarios:
            steps.append(Step(str(scenario.seed), timed("run", self._runner(scenario)),
                              {"run": self._check_run(scenario)}))
            steps.append(Step(str(scenario.seed),
                              timed("hit", lambda s=scenario: self._submit(s)),
                              {"hit": self._check_hit(scenario)}))
        return steps

    def _runner(self, scenario: Scenario):
        def run() -> RunInfo:
            pipeline = DBREPipeline(scenario.database, scenario.expert)
            return RunInfo(pipeline.run(corpus=scenario.corpus))

        return run

    def teardown(self) -> None:
        connections = [
            getattr(s.database.backend, "connection", None) for s in self.scenarios
        ]
        super().teardown()
        for connection in connections:
            if connection is not None:
                connection.close()


class ServiceWorkload(Workload):
    """Four wide scenarios through a fresh manager and archive per cycle.

    One step per scenario: a ``run`` lap from the fresh submit until the
    run is archived, then a ``hit`` lap, a duplicate submit.  The run
    lap does not stop at ``result()``: the runner thread writes the
    archive right after it returns, and the lap that overlapped that
    write would be charged a share of it that depends on when the
    scheduler switches threads.  Ending the run lap at the write keeps
    both laps steady and keeps the write in ``run_p50_s``, so work moved
    between the run path, the archive and the cache path shows.
    """

    name = "service-wide"
    default_seeds = (1, 2, 3, 4)
    config = WIDE_CONFIG

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.archive_dir: Optional[str] = None
        #: ``time.time`` minus ``perf_counter``, to place job timestamps
        #: on the span clock
        self._wall_offset = time.time() - time.perf_counter()

    def _start(self) -> None:
        self.archive_dir = tempfile.mkdtemp(prefix="archive-", dir=self.workdir)
        self.manager = JobManager(runners=1, archive=RunArchive(self.archive_dir))

    def _stop(self) -> None:
        super()._stop()
        if self.archive_dir is not None:
            for root, _dirs, files in os.walk(self.archive_dir):
                for name in files:
                    self.archive_bytes += os.path.getsize(os.path.join(root, name))
            self.archive_stores += len(os.listdir(os.path.join(self.archive_dir, "runs")))
            shutil.rmtree(self.archive_dir, ignore_errors=True)
            self.archive_dir = None

    def _warm_up(self, index: int):
        job = super()._warm_up(index)
        await_archived(job)
        return job

    def cycle(self) -> List[Step]:
        self._start()
        return [
            Step(str(scenario.seed), self._pair(scenario),
                 {"run": self._check_run(scenario), "hit": self._check_hit(scenario)})
            for scenario in self.scenarios
        ]

    def _pair(self, scenario: Scenario):
        def body(clock: Clock) -> List[Lap]:
            start = clock()
            job = self._submit(scenario)
            result = self.manager.result(job.id, RESULT_TIMEOUT_S)
            await_archived(job)
            fresh_end = clock()
            duplicate = self._submit(scenario)
            hit_end = clock()
            wait = (job.started_at or job.submitted_at) - job.submitted_at
            if self.recorder is not None:
                begin = job.submitted_at - self._wall_offset
                self.recorder.add(QUEUE_WAIT, begin, begin + wait)
            self.submits += 1
            bus = job.live
            info = RunInfo(result, wait, bus.last_seq if bus is not None else 0)
            return [Lap("run", fresh_end - start, info),
                    Lap("hit", hit_end - fresh_end, duplicate)]

        return body

    def end_cycle(self) -> None:
        self._stop()


def make_workload(name: str, scenario_seeds, shuffle_seed: int, workdir: str) -> Workload:
    if name == "scan-memory":
        return ScanWorkload(name, MemoryBackend, scenario_seeds, shuffle_seed, workdir)
    if name == "scan-sqlite":
        return ScanWorkload(name, _shared_sqlite, scenario_seeds, shuffle_seed, workdir)
    if name == "service-wide":
        return ServiceWorkload(scenario_seeds, shuffle_seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("scan-memory", "scan-sqlite", "service-wide")
