"""S13 — live-telemetry overhead and stream completeness.

Two claims pay for the ``repro.obs.live`` bus:

1. **One store, always recorded** — every tracer records its run into
   the bus it owns from construction; there is no unwatched mode and no
   second list of spans or events.  A watcher is a reader that tails
   that history by cursor while the run goes on: it asks the run for
   nothing, so a watched run asks exactly the unwatched run's queries
   and decisions (asserted here) and its wall clock stays within noise
   of a run nobody reads.  Every regression-gate head records the same
   way; its latency entries are held to ≤ 2x of a baseline in
   calibration units where they clear the gate's noise floor (only in
   full mode).  Here we print the measured delta for the record.
2. **A watcher sees everything** — the history carries every phase
   boundary of the run, at least one progress tick per discovery
   phase, and the terminal record, all in one contiguous sequence.  A
   reader pages that history by ``seq``; there is no per-reader queue
   that could fill, so a slow reader cannot stall the run or lose a
   record.

Like S7/S10/S11 this file runs as a plain smoke test with
``time.perf_counter`` loops, not the pytest-benchmark fixture.
"""

import threading
import time

from benchmarks.conftest import report
from repro.core import DBREPipeline
from repro.obs import Tracer
from repro.obs.live import RunStats
from repro.workloads.scenario import ScenarioConfig, build_scenario

#: the s3/s13 regression-gate scenario at quick scale
SCENARIO = ScenarioConfig(
    seed=700,
    n_entities=5,
    n_one_to_many=4,
    n_many_to_many=1,
    merges=2,
    parent_rows=20,
)

ROUNDS = 3

PHASES = (
    "IND-Discovery", "LHS-Discovery", "RHS-Discovery", "Restruct", "Translate",
)


def _tail(bus, stop):
    """A watcher: page *bus* by cursor until *stop* is set."""
    seen = 0
    while not stop.is_set():
        for record in bus.history(since=seen):
            seen = record["seq"]
        bus.wait(seen, timeout=0.01)


def _run(watched=False):
    scenario = build_scenario(SCENARIO)
    tracer = Tracer()
    stop = threading.Event()
    if watched:
        watcher = threading.Thread(target=_tail, args=(tracer.live_bus, stop))
        watcher.start()
    pipeline = DBREPipeline(scenario.database, scenario.expert, tracer=tracer)
    start = time.perf_counter()
    result = pipeline.run(corpus=scenario.corpus)
    wall = time.perf_counter() - start
    if watched:
        stop.set()
        watcher.join()
    return tracer, wall, result


def _best_wall(watched=False, rounds=ROUNDS):
    return min(_run(watched)[1] for _ in range(rounds))


def _work(tracer, result):
    """The queries per primitive and the expert decisions of one run."""
    return tracer.live_bus.calls(), result.expert_decisions


def test_s13_overhead_with_and_without_a_watcher():
    """Wall clocks side by side; the hard gate rides the regression head."""
    quiet = _best_wall(watched=False)
    watched = _best_wall(watched=True)
    ratio = watched / quiet if quiet else float("inf")
    report(
        f"S13 — wall clock, unread vs a tailing watcher (best of {ROUNDS})",
        ["mode", "wall ms", "ratio"],
        [
            ["unread", f"{quiet * 1000:.1f}", "1.00x"],
            ["watched", f"{watched * 1000:.1f}", f"{ratio:.2f}x"],
        ],
    )
    # generous inline bound — the calibrated ≤ 2x bar lives in
    # benchmarks/regression.py under the s3-all-features-head entries
    assert ratio < 5.0, (
        f"a single live watcher cost {ratio:.2f}x wall clock — "
        f"publish has left the fast path"
    )


def test_s13_a_watched_run_asks_the_unwatched_runs_queries():
    """A watcher tailing the bus adds no query and no decision."""
    quiet = _work(*_run(watched=False)[::2])
    watched = _work(*_run(watched=True)[::2])
    assert watched == quiet, (
        f"the watched run asked {watched}, the unwatched run {quiet}"
    )
    queries, decisions = quiet
    report(
        "S13 — the same work, watched or not",
        ["figure", "unwatched", "watched"],
        [
            ["extension queries", sum(queries.values()), sum(watched[0].values())],
            ["expert decisions", decisions, watched[1]],
        ],
    )


def test_s13_watcher_sees_every_phase_and_the_terminus():
    """The bus history, full stream: boundaries, progress, contiguous seq."""
    tracer, _, _ = _run(watched=True)
    bus = tracer.live_bus
    records = bus.history()
    assert len(records) == bus.last_seq
    assert [r["seq"] for r in records] == list(range(1, bus.last_seq + 1))
    # a direct run's terminus is the pipeline span closing (the job
    # service adds its own ``end`` sentinel on top)
    assert records[-1]["type"] == "span-close"
    assert records[-1]["name"] == "pipeline"
    opens = [r["name"] for r in records
             if r["type"] == "span-open" and r.get("kind") == "phase"]
    closes = [r["name"] for r in records
              if r["type"] == "span-close" and r.get("kind") == "phase"]
    assert opens == list(PHASES)
    assert closes == list(PHASES)
    progress = {}
    for record in records:
        if record["type"] == "progress":
            progress[record.get("phase")] = progress.get(
                record.get("phase"), 0
            ) + 1
    for phase in ("IND-Discovery", "LHS-Discovery", "RHS-Discovery"):
        assert progress.get(phase, 0) >= 1, f"no progress tick in {phase}"
    report(
        "S13 — the watched bus, stream census",
        ["event type", "records"],
        sorted(RunStats.fold(records).events.items()),
    )
