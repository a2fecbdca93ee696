"""Drift-normalised discovery benchmark: one command, one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scan-memory --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload service-wide --seed 1 --seconds 34 --trace 1 \\
        --scenario-seeds 6,7

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced cycles with cycles in which every
layer's public entry point is wrapped (see ``spans.py``), prints the
per-layer table and writes the spans as JSONL under ``perfbench/out/``.
Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Timing rule: every timed sample and every set-up is bracketed by a
reference loop (``normalise.py``); medians and percentiles are taken
over the per-sample ratios and scaled by ``normalise.NOMINAL_S``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

from normalise import NOMINAL_S, Bracket, quantile, timed
from spans import SpanRecorder, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: the tail percentile.  p90 needs 100 samples to have ten beyond it,
#: which no workload's run holds; p75 needs 40, which most runs hold
TAIL_Q = 0.75
#: set-ups per run; ``setup_s`` is their median
SETUPS = 5

PRIMITIVES = ("count_distinct", "join_count", "fd_holds", "inclusion_holds")
PHASES = ("ind_discovery", "lhs_discovery", "rhs_discovery", "restruct", "translate")

#: (name, unit) of every per-layer metric, in print order
PER_LAYER = (
    [("relational.database.copy_s", "s"),
     ("dependencies.inference.evidence_s", "s"),
     ("dependencies.inference.evidence_calls", "count")]
    + [
        (f"backends.{kind}.{prim}.{field}", unit)
        for kind in ("memory", "sqlite")
        for prim in PRIMITIVES
        for field, unit in (("calls", "count"), ("s", "s"),
                            ("rows", "count"), ("hit_ratio", "ratio"))
    ]
    + [("backends.sqlite.table_s", "s")]
    + [(f"core.{phase}.self_s", "s") for phase in PHASES]
    + [("programs.extractor.extract_s", "s"),
       ("normalization.certificate.check_s", "s"),
       ("normalization.certificate.checks", "count"),
       ("service.jobs.fingerprint_s", "s"),
       ("service.jobs.queue_wait_s", "s"),
       ("service.jobs.cache_hit_ratio", "ratio"),
       ("obs.archive.store_s", "s"),
       ("obs.archive.bytes", "bytes"),
       ("obs.tracer.events", "count"),
       ("obs.live.events", "count"),
       ("harness.wall_s", "s"),
       ("harness.ref_loop_s", "s"),
       ("harness.trace_overhead", "ratio"),
       ("harness.root_self_share", "ratio")]
)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="shuffles the row order of every relation")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement window after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenario-seeds", default="",
                        help="comma-separated scenario seeds (default: the "
                             "workload's own; held-out: 901 for scan-*, 6,7 "
                             "for service-wide)")
    return parser.parse_args(argv)


@dataclass
class RunStats:
    """The counts one traced run leaves for the per-layer table."""

    rows: Dict[str, int]          # backends.<kind>.<primitive> -> rows touched
    hits: Dict[str, int]          # ... -> calls answered from a cache
    tracer_events: int            # primitive events + spans of the run
    live_events: int
    queue_wait_s: float

    @classmethod
    def of(cls, info) -> "RunStats":
        trace = info.result.trace
        rows: Dict[str, int] = defaultdict(int)
        hits: Dict[str, int] = defaultdict(int)
        for event in trace.events:
            key = f"backends.{event.backend}.{event.primitive}"
            rows[key] += event.rows_touched
            hits[key] += int(event.cache_hit)
        return cls(rows, hits, len(trace.events) + len(trace.spans),
                   info.live_events, info.queue_wait_s)


class Harness:
    """Runs one workload's samples and folds them into metrics."""

    def __init__(self, workload, bracket, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.bracket = bracket
        self.seconds = seconds
        self.trace = trace
        #: (kind, traced?) -> scenario -> normalised values / raw seconds
        self.values: Dict[tuple, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(list))
        self.raw: Dict[tuple, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(list))
        self.refs: List[float] = []
        self.runs = []            # (run id, RunStats) of every traced run sample
        self.run_refs: Dict[str, float] = {}   # root run id -> ref_s
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.recorder = None

    def _fail(self, what: str, exc: Exception, laps: int = 1) -> None:
        self.failed += laps
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)

    def sample(self, step, traced: bool) -> None:
        self.attempted += len(step.checks)
        run_id = f"s{self.attempted}"
        body = step.body
        if traced:
            def body(clock):
                with self.recorder.root(run_id):
                    return step.body(clock)
        try:
            sample = self.bracket.measure(body)
        except Exception as exc:  # every failure is counted, none aborts
            self._fail(f"step {step.label}", exc, len(step.checks))
            return
        self.refs.append(sample.ref_s)
        if traced:
            self.run_refs[run_id] = sample.ref_s
        for lap in sample.laps:
            try:
                step.checks[lap.kind](lap.result)
            except Exception as exc:
                self._fail(f"{lap.kind} {step.label}", exc)
                continue
            key = (lap.kind, traced)
            self.values[key][step.label].append(sample.value_s(lap))
            self.raw[key][step.label].append(lap.raw_s)
            if traced and lap.kind == "run":
                # keep counts, not the result: retained 20k-row copies
                # would slow every later sample's garbage collection
                self.runs.append((run_id, RunStats.of(lap.result)))

    def measure(self) -> None:
        deadline = time.perf_counter() + self.seconds
        cycles = 0
        # a traced run needs an untraced and a traced cycle at least
        while time.perf_counter() < deadline or cycles < 1 + self.trace:
            traced = self.trace and cycles % 2 == 1
            if traced:
                with self.recorder.installed():
                    self.workload.recorder = self.recorder
                    self._cycle(traced)
                    self.workload.recorder = None
            else:
                self._cycle(traced)
            cycles += 1

    def _cycle(self, traced: bool) -> None:
        try:
            for step in self.workload.cycle():
                self.sample(step, traced)
        finally:
            self.workload.end_cycle()


def setup_samples(workload, bracket) -> List[float]:
    """Set the workload up SETUPS times; keep the last one standing.

    Each piece of a set-up is bracketed on its own; a set-up's value is
    the sum of its pieces' normalised times.
    """
    values = []
    for index in range(SETUPS):
        if index:
            workload.teardown()
        total = 0.0
        for step in workload.setup_steps():
            sample = bracket.measure(timed("setup", step))
            total += sample.value_s(sample.laps[0])
        workload.end_cycle()
        values.append(total)
    return values


def pin_to_one_cpu() -> None:
    """Keep both threads and the reference loop on one processor.

    On a VM each virtual processor's speed drifts on its own, so a
    reference loop run on one processor does not track work done on the
    other.  With the interpreter lock only one thread runs at a time
    anyway.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def per_scenario(groups: Dict[str, List[float]], q: float) -> float:
    """The mean over scenarios of each scenario's *q* quantile.

    Scenarios differ in size, so a quantile of their pooled samples
    would sit between clusters and jump with their mix.
    """
    return statistics.mean(quantile(values, q) for values in groups.values())


def count(groups: Dict[str, List[float]]) -> int:
    return sum(len(values) for values in groups.values())


def end_to_end(harness: Harness, setups: List[float]) -> Dict[str, Dict]:
    workload = harness.workload
    runs = harness.values[("run", False)]
    hits = harness.values[("hit", False)]
    scenarios = workload.scenarios
    queries = statistics.mean(s.queries for s in scenarios)
    decisions = statistics.mean(s.decisions for s in scenarios)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "run_p50_s": (per_scenario(runs, 0.5), "s", count(runs)),
        "run_p75_s": (per_scenario(runs, TAIL_Q), "s", count(runs)),
        "hit_p50_s": (per_scenario(hits, 0.5), "s", count(hits)),
        "extension_queries": (queries, "count", count(runs)),
        "expert_decisions": (decisions, "count", count(runs)),
        "recovery_rate": (statistics.mean(s.recovery for s in scenarios),
                          "ratio", len(scenarios)),
        "ok_rate": ((harness.attempted - harness.failed) / harness.attempted,
                    "ratio", harness.attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", 1),
    }


def per_layer(harness: Harness) -> Dict[str, float]:
    """Per-run layer figures from the traced cycles' spans."""
    spans = harness.recorder.spans
    n_runs = max(1, len(harness.runs))
    median_ref = statistics.median(harness.refs)

    def norm(span, seconds: float) -> float:
        return seconds / harness.run_refs.get(span.run, median_ref) * NOMINAL_S

    own = self_times(spans)
    total: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        total[span.name] += norm(span, span.duration)
        self_s[span.name] += norm(span, own[span.span_id])
        calls[span.name] += 1

    out: Dict[str, float] = {}
    out["relational.database.copy_s"] = total["relational.database.copy"] / n_runs
    out["dependencies.inference.evidence_s"] = (
        total["dependencies.inference.evidence"] / n_runs)
    out["dependencies.inference.evidence_calls"] = (
        calls["dependencies.inference.evidence"] / n_runs)

    rows: Dict[str, int] = defaultdict(int)
    hits: Dict[str, int] = defaultdict(int)
    for _run_id, stats in harness.runs:
        for key, value in stats.rows.items():
            rows[key] += value
        for key, value in stats.hits.items():
            hits[key] += value
    for kind in ("memory", "sqlite"):
        for prim in PRIMITIVES:
            key = f"backends.{kind}.{prim}"
            out[f"{key}.calls"] = calls[key] / n_runs
            out[f"{key}.s"] = total[key] / n_runs
            out[f"{key}.rows"] = rows[key] / n_runs
            out[f"{key}.hit_ratio"] = hits[key] / calls[key] if calls[key] else 0.0
    out["backends.sqlite.table_s"] = total["backends.sqlite.table"] / n_runs
    for phase in PHASES:
        out[f"core.{phase}.self_s"] = self_s[f"core.{phase}"] / n_runs
    out["programs.extractor.extract_s"] = total["programs.extractor.extract"] / n_runs
    out["normalization.certificate.check_s"] = (
        total["normalization.certificate.check"] / n_runs)
    out["normalization.certificate.checks"] = (
        calls["normalization.certificate.check"] / n_runs)

    workload = harness.workload
    out["service.jobs.fingerprint_s"] = total["service.jobs.fingerprint"] / n_runs
    runs = [stats for _run_id, stats in harness.runs]
    out["service.jobs.queue_wait_s"] = (
        statistics.mean(s.queue_wait_s for s in runs) * NOMINAL_S / median_ref)
    out["service.jobs.cache_hit_ratio"] = (
        workload.cached_submits / workload.submits if workload.submits else 0.0)
    out["obs.archive.store_s"] = total["obs.archive.store"] / n_runs
    out["obs.archive.bytes"] = (
        workload.archive_bytes / workload.archive_stores
        if workload.archive_stores else 0.0)
    out["obs.tracer.events"] = statistics.mean(s.tracer_events for s in runs)
    out["obs.live.events"] = statistics.mean(s.live_events for s in runs)

    untraced = harness.values[("run", False)]
    traced = harness.values[("run", True)]
    out["harness.wall_s"] = per_scenario(harness.raw[("run", False)], 0.5)
    out["harness.ref_loop_s"] = median_ref
    out["harness.trace_overhead"] = (
        per_scenario(traced, 0.5) / per_scenario(untraced, 0.5) - 1.0)
    out["harness.root_self_share"] = self_shares(harness)["run"]
    return out


def print_end_to_end(workload, harness: Harness, metrics) -> None:
    print(f"== {workload.name}: end-to-end (drift-normalised; "
          f"nominal loop {NOMINAL_S * 1000:.1f} ms) ==")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<20} {value:>12.6g} {unit:<6} n={n}")
    runs = harness.values[("run", False)]
    fewest = min(len(values) for values in runs.values())
    if fewest >= 100:
        print(f"  {'run_p90_s':<20} {per_scenario(runs, 0.9):>12.6g} s      "
              f"n={count(runs)}")
    else:
        print(f"  {'run_p90_s':<20} {'-':>12} s      not reported: "
              f"{fewest} < 100 samples per scenario")
    print(f"  {'harness.wall_s':<20} "
          f"{per_scenario(harness.raw[('run', False)], 0.5):>12.6g} s      "
          f"(raw run p50)")
    print(f"  {'harness.ref_loop_s':<20} {statistics.median(harness.refs):>12.6g} s")
    print(f"  {'fail_rate':<20} {harness.failed / harness.attempted:>12.6g} ratio  "
          f"({harness.failed}/{harness.attempted})")
    for scenario in workload.scenarios:
        print(f"  scenario {scenario.seed}: {scenario.rows} rows, "
              f"{scenario.queries} queries, {scenario.decisions} "
              f"decisions, recovery {scenario.recovery:.4g}")


def print_per_layer(workload, harness: Harness, layers: Dict[str, float]) -> None:
    print(f"== {workload.name}: per layer, per run (traced cycles, "
          f"n={len(harness.runs)} runs; zero rows omitted) ==")
    for name, unit in PER_LAYER:
        if layers[name]:
            print(f"  {name:<42} {layers[name]:>12.6g} {unit}")
    print(f"== {workload.name}: self time per layer, share of the traced sample ==")
    shares = self_shares(harness)
    for name, share in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"  {name:<42} {share:>8.1%}")


def self_shares(harness: Harness) -> Dict[str, float]:
    """Each span name's self time over the run samples' root time.

    ``run`` is the root's own self time: work outside every named layer.
    """
    spans = harness.recorder.spans
    own = self_times(spans)
    run_ids = {run_id for run_id, _info in harness.runs}
    roots = [s for s in spans if s.name == "run" and s.run in run_ids]
    whole = sum(s.duration for s in roots)
    shares: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span.run in run_ids:
            shares[span.name] += own[span.span_id] / whole
    return shares


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seeds = [int(s) for s in args.scenario_seeds.split(",") if s.strip()]
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)

    pin_to_one_cpu()
    workload = make_workload(args.workload, seeds, args.seed, outdir)
    bracket = Bracket()
    harness = Harness(workload, bracket, args.seconds, bool(args.trace))
    try:
        setups = setup_samples(workload, bracket)
        if args.trace:
            harness.recorder = SpanRecorder()
        harness.measure()
        if threading.active_count() > 2:
            harness.errors.append(f"{threading.active_count()} threads alive")
        metrics = end_to_end(harness, setups)
        print_end_to_end(workload, harness, metrics)
        if args.trace:
            layers = per_layer(harness)
            print_per_layer(workload, harness, layers)
            path = os.path.join(outdir, f"spans-{args.workload}-seed{args.seed}.jsonl")
            harness.recorder.write_jsonl(path)
            print(f"  spans written to {os.path.relpath(path)}")
            result = {name: {"value": layers[name], "unit": unit}
                      for name, unit in PER_LAYER}
        else:
            result = {name: {"value": value, "unit": unit}
                      for name, (value, unit, _count) in metrics.items()}
    finally:
        workload.teardown()

    for error in harness.errors:
        print(f"  failure: {error}", file=sys.stderr)
    correct = harness.failed == 0 and not harness.errors
    print(json.dumps({
        "correct": correct,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
