#!/usr/bin/env python
"""S-series benchmark-regression harness — the CI gate.

Runs the heads of the S-series benchmarks (a small IND-scalability
scenario, an end-to-end scenario, the same end-to-end scenario on the
SQLite pushdown backend, once more with the provenance ledger enabled,
and once more with the hotspot-profile view computed after the run)
under tracing, and emits one JSON document per run with per-primitive
query counts and latencies.  Compared against
``benchmarks/BENCH_baseline.json``, the harness **fails (exit 1) when
any head regresses by more than ``--max-ratio`` (default 2x)** in
either

- **query count** per primitive — deterministic, so a regression means
  an algorithmic change made the method chattier; or
- **latency** per primitive — measured in *calibration units* (the
  run's wall time divided by the time of a fixed pure-Python workload
  measured in the same process), so baselines recorded on one machine
  gate runs on another.  Primitives whose baseline cost is below the
  noise floor are not latency-gated.

Usage::

    PYTHONPATH=src python benchmarks/regression.py --quick \
        --output bench-metrics.json            # compare + emit metrics
    PYTHONPATH=src python benchmarks/regression.py --write-baseline --quick

A gate failure is *attributed*, not just reported: for every failing
head the harness prints a per-primitive / per-phase table (queries,
latency units, cache hit-rates, rows scanned, inclusive vs. self time
— baseline → current, worst delta first), so the violation names the
phase, primitive or cache that regressed.  With ``--history PATH`` a
run also appends one ``repro/bench-history@1`` record to *PATH* and
prints a drift advisory over it, persisting the perf trajectory; CI
passes ``--history benchmarks/BENCH_history.jsonl``.  Without it the
run writes nothing but ``--output``/``--write-baseline``, so a local
check leaves the tree clean.

The baseline file stores one entry per mode (``quick``/``full``); a run
only gates against the matching mode.  CI runs ``--quick`` and uploads
the metrics JSON as an artifact (see ``.github/workflows/ci.yml`` and
``docs/OBSERVABILITY.md``).

Exit codes: **0** gate passed (or skipped / baseline written), **1**
at least one head regressed past the ratio, **3** the current run
produced a head the baseline does not know — a new bench head landed
without ``--write-baseline``, so it would ride along ungated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from datetime import datetime, timezone

from repro.backends import MemoryBackend, SQLiteBackend
from repro.core import DBREPipeline
from repro.obs import Tracer, trace_records
from repro.obs.export import metrics_from_stats, replay_trace
from repro.obs.live import RunStats
from repro.obs.profile import profile_from_stats
from repro.util.text import format_table
from repro.workloads.scenario import ScenarioConfig, build_scenario

FORMAT = "repro/bench@1"
BASELINE_FORMAT = "repro/bench-baseline@1"
HISTORY_FORMAT = "repro/bench-history@1"
DEFAULT_BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_baseline.json")

#: latency gating ignores primitives cheaper than this many calibration
#: units in the baseline — they are dominated by timer noise
LATENCY_FLOOR_UNITS = 0.05

#: exit code when the run produces heads the baseline lacks — distinct
#: from 1 (regression) so CI can say "re-record the baseline", not "perf"
EXIT_UNGUARDED_HEADS = 3


def _head_configs(quick: bool) -> List[Dict[str, Any]]:
    """The S-series heads: (name, scenario knobs, backend factory)."""
    scale = 0 if quick else 2
    return [
        {
            "name": "s1-ind-head",
            "config": ScenarioConfig(
                seed=300,
                n_entities=4 + scale,
                n_one_to_many=3 + scale,
                n_many_to_many=1,
                merges=2,
                parent_rows=15 if quick else 40,
            ),
            "backend": MemoryBackend,
        },
        {
            "name": "s3-end-to-end-head",
            "config": ScenarioConfig(
                seed=700,
                n_entities=5 + scale,
                n_one_to_many=4 + scale,
                n_many_to_many=1,
                merges=2,
                parent_rows=20 if quick else 60,
            ),
            "backend": MemoryBackend,
        },
        {
            "name": "s6-sqlite-head",
            "config": ScenarioConfig(
                seed=700,
                n_entities=5 + scale,
                n_one_to_many=4 + scale,
                n_many_to_many=1,
                merges=2,
                parent_rows=20 if quick else 60,
            ),
            "backend": SQLiteBackend,
        },
        # the s3 head with the provenance ledger enabled: queries are
        # gated (the ledger must stay at zero extra extension queries)
        # and its latency entry tracks the bookkeeping overhead;
        # "provenance" extras record the lineage DAG's size
        {
            "name": "s8-provenance-head",
            "config": ScenarioConfig(
                seed=700,
                n_entities=5 + scale,
                n_one_to_many=4 + scale,
                n_many_to_many=1,
                merges=2,
                parent_rows=20 if quick else 60,
            ),
            "backend": MemoryBackend,
            "provenance": True,
        },
        # the s3 head with the hotspot profile computed after the run:
        # profiling is a pure view over the event stream, so its gated
        # query counts must stay identical to s3's; "profile" extras
        # record the attribution figures the view derives
        {
            "name": "s9-profile-head",
            "config": ScenarioConfig(
                seed=700,
                n_entities=5 + scale,
                n_one_to_many=4 + scale,
                n_many_to_many=1,
                merges=2,
                parent_rows=20 if quick else 60,
            ),
            "backend": MemoryBackend,
            "profile": True,
        },
        # the s3 head with a live subscriber attached for the whole run:
        # queries are gated (telemetry must never ask the extension
        # anything) and its latency entry tracks the publish overhead —
        # this is the ≤ 2x calibrated bar behind the "within noise when
        # watched" claim; "live" extras record the stream census
        {
            "name": "s13-live-head",
            "config": ScenarioConfig(
                seed=700,
                n_entities=5 + scale,
                n_one_to_many=4 + scale,
                n_many_to_many=1,
                merges=2,
                parent_rows=20 if quick else 60,
            ),
            "backend": MemoryBackend,
            "live": True,
        },
        # the s3 head with every restruct decomposition re-verified from
        # scratch: certification (chase, preservation split, normal-form
        # diagnosis) is pure schema computation, so the gated query
        # counts must stay at s3's figures; "normalization" extras
        # record the certificate census (all must verify, losses must
        # stay attributed)
        {
            "name": "s12-synthesis-head",
            "config": ScenarioConfig(
                seed=700,
                n_entities=5 + scale,
                n_one_to_many=4 + scale,
                n_many_to_many=1,
                merges=2,
                parent_rows=20 if quick else 60,
            ),
            "backend": MemoryBackend,
            "normalization": True,
        },
        # the s3 head written through to a repro/archive@1 directory
        # and restored again: archival is file I/O strictly after the
        # run, so the gated query counts must stay at s3's figures;
        # "archive" extras record the store/restore round-trip cost so
        # a durability-layer slowdown names itself
        {
            "name": "s14-archive-head",
            "config": ScenarioConfig(
                seed=700,
                n_entities=5 + scale,
                n_one_to_many=4 + scale,
                n_many_to_many=1,
                merges=2,
                parent_rows=20 if quick else 60,
            ),
            "backend": MemoryBackend,
            "archive": True,
        },
    ]


def _calibrate(rounds: int = 3) -> float:
    """Milliseconds for a fixed pure-Python workload (best of *rounds*).

    The workload mirrors what the primitives do — building and
    intersecting distinct sets of tuples — so head latencies divided by
    this number are comparable across machines.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        left = {(i % 997, i % 31) for i in range(50_000)}
        right = {(i % 991, i % 29) for i in range(50_000)}
        _ = len(left & right) + len(left | right)
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def gate_figures(stats: RunStats) -> Dict[str, Any]:
    """A head's per-primitive and per-phase figures, rendered from its fold."""
    profile = profile_from_stats(stats)
    totals = stats.totals()
    return {
        "queries": {p: s["calls"] for p, s in profile["primitives"].items()},
        "latency_ms": {p: s["duration_ms"] for p, s in profile["primitives"].items()},
        # per-primitive calls/latency/cache/rows — the attribution table
        # and `repro trace diff` read hit rates from here
        "primitives": profile["primitives"],
        "cache_hits": totals["cache_hits"],
        "rows_touched": totals["rows_touched"],
        "phases": {
            name: {
                "duration_ms": phase["inclusive_ms"],
                "queries": phase["queries"],
                "self_ms": phase["self_ms"],
            }
            for name, phase in profile["phases"].items()
        },
    }


def run_head(head: Dict[str, Any]) -> Dict[str, Any]:
    """One traced pipeline run; returns the head's measured figures."""
    scenario = build_scenario(head["config"])
    database = scenario.database.copy(backend=head["backend"]())
    tracer = Tracer()
    subscription = tracer.subscribe() if head.get("live") else None
    pipeline = DBREPipeline(
        database,
        scenario.expert,
        tracer=tracer,
        provenance=head.get("provenance", False),
    )
    start = time.perf_counter()
    result = pipeline.run(corpus=scenario.corpus)
    wall_ms = (time.perf_counter() - start) * 1000.0
    records = trace_records(tracer)
    stats = RunStats.fold(replay_trace(records))
    database.close()

    measured = {
        "wall_ms": round(wall_ms, 3),
        **gate_figures(stats),
        "decisions": result.expert_decisions,
    }
    if head.get("profile"):
        # the hotspot view re-derived after the run; recording it here
        # proves (via the gated query counts staying at s3's figures)
        # that profiling aggregation issued zero extension queries
        profile = profile_from_stats(stats)
        hottest = max(
            profile["spans"].items(), key=lambda kv: kv[1]["self_ms"]
        )
        measured["profile"] = {
            "spans": profile["totals"]["spans"],
            "queries_seen": profile["totals"]["queries"],
            "hottest_span": hottest[0],
            "hottest_self_ms": hottest[1]["self_ms"],
        }
    if subscription is not None:
        # stream census; informational — the gated query counts above
        # prove the bus asked the extension nothing, and the head's
        # latency entry bounds the publish overhead — but a watcher
        # that started dropping or missing events shows up here
        census = subscription.drain()
        measured["live"] = {
            "events": len(census),
            "dropped": subscription.dropped,
            "counts": RunStats.fold(census).events,
        }
    if head.get("normalization"):
        # certificate census, with every certificate re-verified from
        # scratch; informational — the gated query counts above prove
        # certification asked the extension nothing extra — but a
        # certificate that stops verifying, or an unexplained loss,
        # shows up here by name
        from repro.normalization import verify_certificate

        certificates = result.certificates
        measured["normalization"] = {
            "certificates": len(certificates),
            "verified": sum(1 for c in certificates if verify_certificate(c) == []),
            "lossless": sum(1 for c in certificates if c.lossless),
            "repaired": sum(1 for c in certificates if c.repaired),
            "lost_fds": sum(len(c.lost) for c in certificates),
        }
    if result.provenance is not None:
        # lineage-DAG size; informational — the gated figures above
        # already prove the ledger added no query and little latency
        ledger = result.provenance
        measured["provenance"] = {
            "nodes": len(ledger.nodes),
            "edges": len(ledger.edges),
            "evidence": sum(len(n.events) for n in ledger.nodes.values()),
        }
    if head.get("archive"):
        # durability round trip; informational — the gated query counts
        # above prove archival asked the extension nothing (it runs
        # strictly after the pipeline) — but a store or restore that
        # starts costing real time shows up here by name
        import shutil
        import tempfile

        from repro.obs.archive import RunArchive

        tmp = tempfile.mkdtemp(prefix="repro-bench-s14-")
        try:
            archive = RunArchive(tmp)
            t0 = time.perf_counter()
            archive.store(
                {"type": "job", "id": "job-1", "label": head["name"],
                 "state": "done", "cached": False},
                ("bench-db", "bench-wl", "{}"),
                trace=records,
                metrics=metrics_from_stats(stats),
            )
            store_ms = (time.perf_counter() - t0) * 1000
            t0 = time.perf_counter()
            runs = archive.runs()
            restore_ms = (time.perf_counter() - t0) * 1000
            measured["archive"] = {
                "runs_restored": len(runs),
                "trace_records": len(records),
                "store_ms": round(store_ms, 3),
                "restore_ms": round(restore_ms, 3),
            }
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return measured


def run_all(quick: bool) -> Dict[str, Any]:
    """Every head, plus the run's calibration constant."""
    calibration_ms = _calibrate()
    heads: Dict[str, Any] = {}
    for head in _head_configs(quick):
        print(f"  running {head['name']} ...", file=sys.stderr)
        measured = run_head(head)
        measured["latency_units"] = {
            p: round(ms / calibration_ms, 4)
            for p, ms in measured["latency_ms"].items()
        }
        heads[head["name"]] = measured
    return {
        "format": FORMAT,
        "mode": "quick" if quick else "full",
        "calibration_ms": round(calibration_ms, 4),
        "heads": heads,
    }


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    max_ratio: float = 2.0,
) -> List[str]:
    """Violation messages for *current* against *baseline* (same mode)."""
    violations: List[str] = []
    for name, base_head in baseline.get("heads", {}).items():
        cur_head = current["heads"].get(name)
        if cur_head is None:
            violations.append(f"{name}: head missing from this run")
            continue
        for primitive, base_calls in base_head.get("queries", {}).items():
            cur_calls = cur_head["queries"].get(primitive, 0)
            if base_calls and cur_calls > max_ratio * base_calls:
                violations.append(
                    f"{name}: {primitive} issued {cur_calls} queries "
                    f"(baseline {base_calls}, limit {max_ratio:.1f}x)"
                )
        for primitive, base_units in base_head.get("latency_units", {}).items():
            if base_units < LATENCY_FLOOR_UNITS:
                continue  # below the noise floor: not gated
            cur_units = cur_head.get("latency_units", {}).get(primitive, 0.0)
            if cur_units > max_ratio * base_units:
                violations.append(
                    f"{name}: {primitive} latency {cur_units:.3f} units "
                    f"(baseline {base_units:.3f}, limit {max_ratio:.1f}x)"
                )
    return violations


def unguarded_heads(
    current: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Heads this run produced that the baseline does not gate.

    ``compare`` iterates the *baseline's* heads, so a head that exists
    only in the current run is silently unguarded — exactly what
    happens when a new bench head lands without ``--write-baseline``.
    """
    return sorted(
        set(current.get("heads", {})) - set(baseline.get("heads", {}))
    )


def _hit_rate(stats: Dict[str, Any]) -> float:
    calls = stats.get("calls", 0)
    return stats.get("cache_hits", 0) / calls if calls else 0.0


def attribution_report(
    name: str, current_head: Dict[str, Any], baseline_head: Dict[str, Any]
) -> str:
    """The attribution table for one failing head.

    A bare "2x slower" verdict is not actionable; this table says
    *which* phase and primitive moved — per-primitive calls, latency
    units and cache hit-rates, and per-phase inclusive/self time, each
    baseline → current, ranked by the latency-unit delta.
    """
    lines = [f"attribution for {name} (baseline -> current):"]
    primitives = sorted(
        set(baseline_head.get("queries", {}))
        | set(current_head.get("queries", {}))
        | set(baseline_head.get("latency_units", {}))
        | set(current_head.get("latency_units", {})),
        key=lambda p: abs(
            current_head.get("latency_units", {}).get(p, 0.0)
            - baseline_head.get("latency_units", {}).get(p, 0.0)
        ),
        reverse=True,
    )
    rows = []
    for primitive in primitives:
        base_units = baseline_head.get("latency_units", {}).get(primitive, 0.0)
        cur_units = current_head.get("latency_units", {}).get(primitive, 0.0)
        base_stats = baseline_head.get("primitives", {}).get(primitive, {})
        cur_stats = current_head.get("primitives", {}).get(primitive, {})
        rows.append([
            primitive,
            f"{baseline_head.get('queries', {}).get(primitive, 0)} -> "
            f"{current_head.get('queries', {}).get(primitive, 0)}",
            f"{base_units:.3f} -> {cur_units:.3f}"
            + (f" ({cur_units / base_units:.2f}x)" if base_units else ""),
            f"{100 * _hit_rate(base_stats):.0f}% -> {100 * _hit_rate(cur_stats):.0f}%",
            f"{base_stats.get('rows_touched', 0)} -> "
            f"{cur_stats.get('rows_touched', 0)}",
        ])
    if rows:
        lines.append(format_table(
            ["primitive", "queries", "latency units", "cache hit-rate", "rows"],
            rows,
        ))
    phase_rows = []
    for phase in sorted(
        set(baseline_head.get("phases", {})) | set(current_head.get("phases", {}))
    ):
        base_phase = baseline_head.get("phases", {}).get(phase, {})
        cur_phase = current_head.get("phases", {}).get(phase, {})
        phase_rows.append([
            phase,
            f"{base_phase.get('queries', 0)} -> {cur_phase.get('queries', 0)}",
            f"{base_phase.get('duration_ms', 0.0):.3f} -> "
            f"{cur_phase.get('duration_ms', 0.0):.3f}",
            f"{base_phase.get('self_ms', 0.0):.3f} -> "
            f"{cur_phase.get('self_ms', 0.0):.3f}",
        ])
    if phase_rows:
        lines.append(format_table(
            ["phase", "queries", "incl ms", "self ms"], phase_rows
        ))
    return "\n".join(lines)


def append_history(
    path: str, result: Dict[str, Any], gate: str, violations: List[str]
) -> Dict[str, Any]:
    """Append one ``repro/bench-history@1`` record for this run.

    One JSON line per run — mode, calibration constant, gate outcome,
    the violations verbatim, and a condensed per-head summary — so the
    perf trajectory persists across runs instead of living only in CI
    artifacts.  Returns the record that was written.
    """
    record = {
        "format": HISTORY_FORMAT,
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": result["mode"],
        "calibration_ms": result["calibration_ms"],
        "commit": os.environ.get("GITHUB_SHA"),
        "gate": gate,
        "violations": list(violations),
        "heads": {
            name: {
                "wall_ms": head["wall_ms"],
                "queries": sum(head.get("queries", {}).values()),
                "cache_hits": head.get("cache_hits", 0),
                "latency_units": head.get("latency_units", {}),
            }
            for name, head in sorted(result["heads"].items())
        },
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True))
        handle.write("\n")
    return record


def load_baseline(path: str, mode: str) -> Optional[Dict[str, Any]]:
    """The baseline entry for *mode*, or None when absent."""
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("format") != BASELINE_FORMAT:
        raise SystemExit(f"error: {path} is not a {BASELINE_FORMAT} document")
    return document.get("modes", {}).get(mode)


def write_baseline(path: str, result: Dict[str, Any]) -> None:
    """Create or update the baseline entry for the result's mode."""
    document = {"format": BASELINE_FORMAT, "modes": {}}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        if existing.get("format") == BASELINE_FORMAT:
            document = existing
    document["modes"][result["mode"]] = result
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="S-series benchmark-regression harness (CI gate)"
    )
    parser.add_argument("--quick", action="store_true",
                        help="small scenario heads (what CI runs)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline JSON to gate against "
                             "(default benchmarks/BENCH_baseline.json)")
    parser.add_argument("--output",
                        help="write this run's metrics JSON here")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record this run as the baseline for its mode "
                             "instead of gating")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="per-primitive regression limit (default 2.0)")
    parser.add_argument("--history", metavar="PATH",
                        help="append one repro/bench-history@1 record for this "
                             "run to PATH and print a drift advisory over it "
                             "(CI: benchmarks/BENCH_history.jsonl)")
    args = parser.parse_args(argv)

    result = run_all(quick=args.quick)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics written to {args.output}", file=sys.stderr)

    def record_history(gate: str, violations: List[str]) -> None:
        if args.history:
            append_history(args.history, result, gate, violations)
            print(f"history appended to {args.history}", file=sys.stderr)

    if args.write_baseline:
        write_baseline(args.baseline, result)
        print(f"baseline ({result['mode']}) written to {args.baseline}")
        record_history("baseline-written", [])
        return 0

    baseline = load_baseline(args.baseline, result["mode"])
    if baseline is None:
        print(
            f"no {result['mode']} baseline in {args.baseline}: gate skipped "
            f"(run with --write-baseline to record one)"
        )
        record_history("skipped", [])
        return 0

    violations = compare(result, baseline, max_ratio=args.max_ratio)
    for head, measured in sorted(result["heads"].items()):
        total = sum(measured["queries"].values())
        print(
            f"{head}: {total} queries, {measured['wall_ms']:.0f} ms wall, "
            f"{measured['cache_hits']} cache hits"
        )
    unguarded = unguarded_heads(result, baseline)
    gate = "fail" if violations else ("unguarded" if unguarded else "pass")
    record_history(gate, violations or unguarded)
    if args.history:
        # advisory drift report: the history file now includes this
        # run, so a flagged latest point means *this run* is anomalous
        # against its own trajectory (robust median/MAD z-score).
        # Advisory only — the ratio gate above is the only thing that
        # decides the exit code.
        from repro.obs.history import bench_drift_report, load_bench_history

        drifted = bench_drift_report(
            load_bench_history(args.history, mode=result["mode"])
        )
        if drifted:
            print("\ndrift advisory (informational, not gated):")
            for message in drifted:
                print(f"  - {message}")
    if violations:
        print("\nREGRESSION GATE FAILED:")
        for violation in violations:
            print(f"  - {violation}")
        failing = []
        for violation in violations:
            name = violation.split(":", 1)[0]
            if name not in failing:
                failing.append(name)
        for name in failing:
            current_head = result["heads"].get(name)
            baseline_head = baseline.get("heads", {}).get(name)
            if current_head and baseline_head:
                print()
                print(attribution_report(name, current_head, baseline_head))
        return 1
    if unguarded:
        print(
            f"error: {len(unguarded)} head(s) missing from the "
            f"{result['mode']} baseline — {', '.join(unguarded)} — "
            f"re-record it with --write-baseline"
        )
        return EXIT_UNGUARDED_HEADS
    print("\nregression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
