"""S13 — live-telemetry overhead and stream completeness.

Three claims pay for the ``repro.obs.live`` bus:

1. **No subscriber, no cost** — a tracer that never attached a bus
   publishes nothing: every hot-path hook is a single ``is None`` test,
   so ``live_bus`` stays ``None`` after a full run (asserted
   structurally, at any speed), and the wall clock of a run with the
   hooks compiled in stays within noise of the pre-bus figure.  The
   regression gate's ``s3-all-features-head`` runs watched, with the
   ledger on; its latency entries are held to ≤ 2x of a baseline in
   calibration units where they clear the gate's noise floor (only in
   full mode).  Here we print the measured delta for the record.
2. **A watcher sees everything** — with one subscriber attached from
   submit, the stream carries every phase boundary of the run, at
   least one progress tick per discovery phase, and the terminal
   record, all in one monotonic sequence.
3. **A slow watcher never stalls the run** — a bounded subscription
   keeps the publishing side non-blocking: the run's wall clock with a
   never-drained maxsize-8 subscriber stays within noise of the
   drained-watcher run, the excess is counted, and the gap is
   recoverable by replay.

Like S7/S10/S11 this file runs as a plain smoke test with
``time.perf_counter`` loops, not the pytest-benchmark fixture.
"""

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


def _run(subscribe=False, maxsize=0):
    scenario = build_scenario(SCENARIO)
    tracer = Tracer()
    subscription = tracer.subscribe(maxsize=maxsize) if subscribe else None
    pipeline = DBREPipeline(scenario.database, scenario.expert, tracer=tracer)
    start = time.perf_counter()
    pipeline.run(corpus=scenario.corpus)
    wall = time.perf_counter() - start
    return tracer, subscription, wall


def _best_wall(subscribe=False, maxsize=0, rounds=ROUNDS):
    return min(_run(subscribe, maxsize)[2] for _ in range(rounds))


def test_s13_no_subscriber_publishes_nothing():
    """The hot path stays a None test: no bus, no records, ever."""
    tracer, _, wall = _run(subscribe=False)
    assert tracer.live_bus is None, (
        "a run without subscribers attached a live bus — the zero-"
        "overhead claim is structurally broken"
    )
    report(
        "S13 — no-subscriber run (bus never attached)",
        ["observable", "value"],
        [
            ["live_bus", "None"],
            ["wall ms", f"{wall * 1000:.1f}"],
        ],
    )


def test_s13_overhead_with_and_without_a_watcher():
    """Wall clocks side by side; the hard gate rides the regression head."""
    quiet = _best_wall(subscribe=False)
    watched = _best_wall(subscribe=True)
    ratio = watched / quiet if quiet else float("inf")
    report(
        f"S13 — wall clock, no subscriber vs one watcher (best of {ROUNDS})",
        ["mode", "wall ms", "ratio"],
        [
            ["no subscriber", f"{quiet * 1000:.1f}", "1.00x"],
            ["one watcher", f"{watched * 1000:.1f}", f"{ratio:.2f}x"],
        ],
    )
    # generous inline bound — the calibrated ≤ 2x bar lives in
    # benchmarks/regression.py under the s3-all-features-head entries
    assert ratio < 5.0, (
        f"a single live watcher cost {ratio:.2f}x wall clock — "
        f"publish has left the fast path"
    )


def test_s13_watcher_sees_every_phase_and_the_terminus():
    """One subscriber, full stream: boundaries, progress, monotonic seq."""
    tracer, subscription, _ = _run(subscribe=True)
    records = subscription.drain()
    assert subscription.dropped == 0
    sequences = [r["seq"] for r in records]
    assert sequences == sorted(sequences)
    assert len(set(sequences)) == len(sequences)
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
        "S13 — one watcher, stream census",
        ["event type", "records"],
        sorted(RunStats.fold(records).events.items()),
    )


def test_s13_slow_watcher_never_stalls_the_run():
    """A bounded never-drained subscription drops, counts, and replays."""
    drained_wall = _best_wall(subscribe=True)
    tracer, slow, stalled_wall = _run(subscribe=True, maxsize=8)
    bus = tracer.live_bus
    kept = slow.drain()
    assert len(kept) == 8
    assert slow.dropped == bus.last_seq - 8
    # the history is complete: replay recovers everything the queue shed
    recovered = bus.subscribe(replay_from=kept[-1]["seq"]).drain()
    assert recovered[-1]["seq"] == bus.last_seq
    ratio = stalled_wall / drained_wall if drained_wall else float("inf")
    report(
        "S13 — slow watcher (maxsize 8, never drained)",
        ["observable", "value"],
        [
            ["records kept", len(kept)],
            ["records dropped", slow.dropped],
            ["recovered by replay", len(recovered)],
            ["wall vs drained watcher", f"{ratio:.2f}x"],
        ],
    )
    assert ratio < 5.0, (
        f"a stalled subscriber cost {ratio:.2f}x wall clock — "
        f"publish is blocking on a full queue"
    )
