"""S13 — live-telemetry overhead and stream completeness.

Two claims pay for the ``repro.obs.live`` bus:

1. **No bus, no cost** — a tracer that never attached a bus
   publishes nothing: every hot-path hook is a single ``is None`` test,
   so ``live_bus`` stays ``None`` after a full run (asserted
   structurally, at any speed), and the wall clock of a run with the
   hooks compiled in stays within noise of the pre-bus figure.  The
   regression gate's ``s3-all-features-head`` runs watched, with the
   ledger on; its latency entries are held to ≤ 2x of a baseline in
   calibration units where they clear the gate's noise floor (only in
   full mode).  Here we print the measured delta for the record.
2. **A watcher sees everything** — with the bus attached before the
   run, its history carries every phase boundary of the run, at least
   one progress tick per discovery phase, and the terminal record, all
   in one contiguous sequence.  A reader pages that history by
   ``seq``; there is no per-reader queue that could fill, so a slow
   reader cannot stall the run or lose a record.

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


def _run(watched=False):
    scenario = build_scenario(SCENARIO)
    tracer = Tracer()
    if watched:
        tracer.live()
    pipeline = DBREPipeline(scenario.database, scenario.expert, tracer=tracer)
    start = time.perf_counter()
    pipeline.run(corpus=scenario.corpus)
    wall = time.perf_counter() - start
    return tracer, wall


def _best_wall(watched=False, rounds=ROUNDS):
    return min(_run(watched)[1] for _ in range(rounds))


def test_s13_unwatched_run_publishes_nothing():
    """The hot path stays a None test: no bus, no records, ever."""
    tracer, wall = _run(watched=False)
    assert tracer.live_bus is None, (
        "an unwatched run attached a live bus — the zero-overhead "
        "claim is structurally broken"
    )
    report(
        "S13 — unwatched run (bus never attached)",
        ["observable", "value"],
        [
            ["live_bus", "None"],
            ["wall ms", f"{wall * 1000:.1f}"],
        ],
    )


def test_s13_overhead_with_and_without_a_watcher():
    """Wall clocks side by side; the hard gate rides the regression head."""
    quiet = _best_wall(watched=False)
    watched = _best_wall(watched=True)
    ratio = watched / quiet if quiet else float("inf")
    report(
        f"S13 — wall clock, no bus vs a watched bus (best of {ROUNDS})",
        ["mode", "wall ms", "ratio"],
        [
            ["no bus", f"{quiet * 1000:.1f}", "1.00x"],
            ["watched", f"{watched * 1000:.1f}", f"{ratio:.2f}x"],
        ],
    )
    # generous inline bound — the calibrated ≤ 2x bar lives in
    # benchmarks/regression.py under the s3-all-features-head entries
    assert ratio < 5.0, (
        f"a single live watcher cost {ratio:.2f}x wall clock — "
        f"publish has left the fast path"
    )


def test_s13_watcher_sees_every_phase_and_the_terminus():
    """The bus history, full stream: boundaries, progress, contiguous seq."""
    tracer, _ = _run(watched=True)
    bus = tracer.live()
    records = bus.history()
    assert bus.trimmed == 0
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
