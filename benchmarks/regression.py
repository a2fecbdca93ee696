#!/usr/bin/env python
"""S-series benchmark-regression harness — the CI gate.

Runs four heads of the S-series benchmarks, each recorded by a live
bus attached before the run (its fold gives every figure), and emits
one JSON document per run with per-primitive query counts and
latencies:

- ``s1-ind-head``, a small IND-scalability scenario;
- ``s3-end-to-end-head``, an end-to-end scenario on memory;
- ``s6-sqlite-head``, the same scenario on the SQLite pushdown backend;
- ``s3-all-features-head``, the same scenario once more with the
  provenance ledger on; after the run it
  computes the hotspot profile, re-verifies every certificate, and
  stores the run (its live capture and fold) in a ``repro/archive@1``
  directory and restores it.

Compared against ``benchmarks/BENCH_baseline.json``, the harness
**fails (exit 1)** on any of

- **query count** per primitive or expert ``decisions`` that differs
  from the baseline, in either direction — both are deterministic, so
  any change means the method now asks a different question;
- **the same work, in the same run**: ``s6-sqlite-head`` and
  ``s3-all-features-head`` must issue exactly ``s3-end-to-end-head``'s
  queries and decisions, so neither the backend nor any feature adds a
  query;
- **the all-features facts**: every certificate verifies, the live
  history holds every published record and one ``primitive`` record
  per query, the profile saw every query, the archive restored exactly
  one run, and the provenance DAG has the baseline's node and edge
  counts;
- **latency** per primitive beyond ``--max-ratio`` (default 2x) —
  measured in *calibration units* (the run's wall time divided by the
  time of a fixed pure-Python workload measured in the same process),
  so baselines recorded on one machine gate runs on another.
  Primitives whose baseline cost is below ``LATENCY_FLOOR_UNITS`` are
  not latency-gated, and each run prints how many entries clear it.

Usage::

    PYTHONPATH=src python benchmarks/regression.py --quick \
        --output bench-metrics.json            # compare + emit metrics
    PYTHONPATH=src python benchmarks/regression.py --write-baseline --quick

A gate failure is *attributed*, not just reported: for every failing
head the harness prints a per-primitive / per-phase table (queries,
latency units, cache hit-rates, rows scanned, inclusive vs. self time
— baseline → current, worst delta first), so the violation names the
phase, primitive or cache that regressed.  A run writes nothing but
``--output``/``--write-baseline``.

The baseline file stores one entry per mode (``quick``/``full``); a run
only gates against the matching mode.  CI runs ``--quick`` and uploads
the metrics JSON as an artifact (see ``.github/workflows/ci.yml`` and
``docs/OBSERVABILITY.md``).

Exit codes: **0** gate passed (or skipped / baseline written), **1**
at least one head violated a rule above, **3** the current run
produced a head the baseline does not know — a new bench head landed
without ``--write-baseline``, so it would ride along ungated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.backends import MemoryBackend, SQLiteBackend
from repro.core import DBREPipeline
from repro.normalization import verify_certificate
from repro.obs import Tracer
from repro.obs.archive import RunArchive
from repro.obs.live import RunStats, live_records
from repro.obs.profile import profile_from_stats
from repro.util.text import format_table
from repro.workloads.scenario import ScenarioConfig, build_scenario

FORMAT = "repro/bench@1"
BASELINE_FORMAT = "repro/bench-baseline@1"
DEFAULT_BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_baseline.json")

#: latency gating ignores primitives cheaper than this many calibration
#: units in the baseline — they are dominated by timer noise
LATENCY_FLOOR_UNITS = 0.05

#: exit code when the run produces heads the baseline lacks — distinct
#: from 1 (regression) so CI can say "re-record the baseline", not "perf"
EXIT_UNGUARDED_HEADS = 3

#: head -> the head whose queries and decisions it must match in the
#: same run: they replay its scenario, so a backend or a feature that
#: asks the extension anything extra shows up here
SAME_WORK_AS = {
    "s6-sqlite-head": "s3-end-to-end-head",
    "s3-all-features-head": "s3-end-to-end-head",
}

#: all-features figures that must equal the baseline's exactly
EXACT_FEATURES = ("provenance_nodes", "provenance_edges")


def _s3_config(quick: bool) -> ScenarioConfig:
    scale = 0 if quick else 2
    return ScenarioConfig(
        seed=700,
        n_entities=5 + scale,
        n_one_to_many=4 + scale,
        n_many_to_many=1,
        merges=2,
        parent_rows=20 if quick else 60,
    )


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
        {"name": "s3-end-to-end-head", "config": _s3_config(quick),
         "backend": MemoryBackend},
        {"name": "s6-sqlite-head", "config": _s3_config(quick),
         "backend": SQLiteBackend},
        {"name": "s3-all-features-head", "config": _s3_config(quick),
         "backend": MemoryBackend, "all_features": True},
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
    bus = tracer.live()
    all_features = head.get("all_features", False)
    pipeline = DBREPipeline(
        database, scenario.expert, tracer=tracer, provenance=all_features
    )
    start = time.perf_counter()
    result = pipeline.run(corpus=scenario.corpus)
    wall_ms = (time.perf_counter() - start) * 1000.0
    stats = bus.stats()
    database.close()

    measured = {
        "wall_ms": round(wall_ms, 3),
        **gate_figures(stats),
        "decisions": result.expert_decisions,
    }
    if all_features:
        measured["features"] = _feature_figures(
            head["name"], result, stats, bus
        )
    return measured


def _feature_figures(
    name: str, result: Any, stats: RunStats, bus: Any
) -> Dict[str, Any]:
    """What the all-features head's views derived after its one run.

    Every figure is deterministic, and :func:`_feature_violations` and
    :data:`EXACT_FEATURES` gate them.
    """
    certificates = result.certificates
    history = bus.history()
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        archive = RunArchive(tmp)
        archive.store(
            {"type": "job", "id": "job-1", "label": name,
             "state": "done", "cached": False},
            ("bench-db", "bench-wl", "{}"),
            live=live_records(history),
            stats=bus.stats(),
        )
        runs_restored = len(archive.runs())
    return {
        "certificates": len(certificates),
        "certificates_verified": sum(
            1 for c in certificates if verify_certificate(c) == []
        ),
        "live_last_seq": bus.last_seq,
        "live_primitives": sum(1 for r in history if r["type"] == "primitive"),
        "live_retained": len(history),
        "profile_queries_seen": profile_from_stats(stats)["totals"]["queries"],
        "provenance_nodes": len(result.provenance.nodes),
        "provenance_edges": len(result.provenance.edges),
        "runs_restored": runs_restored,
    }


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
        violations += _work_differences(name, cur_head, base_head, "baseline")
        base_features = base_head.get("features", {})
        cur_features = cur_head.get("features", {})
        for key in EXACT_FEATURES:
            if key in base_features and cur_features.get(key) != base_features[key]:
                violations.append(
                    f"{name}: {key} {cur_features.get(key)} "
                    f"(baseline {base_features[key]})"
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
    heads = current.get("heads", {})
    for name, reference in SAME_WORK_AS.items():
        if name in heads and reference in heads:
            violations += _work_differences(
                name, heads[name], heads[reference], reference
            )
    for name, head in sorted(heads.items()):
        violations += _feature_violations(name, head)
    return violations


def _work_differences(
    name: str, head: Dict[str, Any], reference: Dict[str, Any], against: str
) -> List[str]:
    """Where *head*'s query counts or decisions differ from *reference*'s."""
    differences = []
    cur_queries = head.get("queries", {})
    ref_queries = reference.get("queries", {})
    for primitive in sorted(set(cur_queries) | set(ref_queries)):
        cur_calls = cur_queries.get(primitive, 0)
        ref_calls = ref_queries.get(primitive, 0)
        if cur_calls != ref_calls:
            differences.append(
                f"{name}: {primitive} issued {cur_calls} queries "
                f"({against} {ref_calls})"
            )
    if head.get("decisions") != reference.get("decisions"):
        differences.append(
            f"{name}: {head.get('decisions')} expert decisions "
            f"({against} {reference.get('decisions')})"
        )
    return differences


def _feature_violations(name: str, head: Dict[str, Any]) -> List[str]:
    """The all-features facts that do not hold in *head*'s own figures."""
    features = head.get("features")
    if features is None:
        return []
    queries = sum(head.get("queries", {}).values())
    facts = [
        (features["certificates_verified"] == features["certificates"],
         f"{features['certificates_verified']} of "
         f"{features['certificates']} certificates verify"),
        (features["live_retained"] == features["live_last_seq"],
         f"the live history holds {features['live_retained']} of "
         f"{features['live_last_seq']} records"),
        (features["live_primitives"] == queries,
         f"the live history holds {features['live_primitives']} of "
         f"{queries} primitive records"),
        (features["profile_queries_seen"] == queries,
         f"the profile saw {features['profile_queries_seen']} of "
         f"{queries} queries"),
        (features["runs_restored"] == 1,
         f"the archive restored {features['runs_restored']} runs, not 1"),
    ]
    return [f"{name}: {message}" for holds, message in facts if not holds]


def latency_coverage(baseline: Dict[str, Any]) -> Tuple[int, int]:
    """``(gated, all)`` baseline latency entries: gated ones clear the floor."""
    units = [
        value
        for head in baseline.get("heads", {}).values()
        for value in head.get("latency_units", {}).values()
    ]
    return sum(1 for u in units if u >= LATENCY_FLOOR_UNITS), len(units)


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
                        help="per-primitive latency limit (default 2.0); "
                             "query counts and decisions are gated exactly")
    args = parser.parse_args(argv)

    result = run_all(quick=args.quick)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics written to {args.output}", file=sys.stderr)

    if args.write_baseline:
        write_baseline(args.baseline, result)
        print(f"baseline ({result['mode']}) written to {args.baseline}")
        return 0

    baseline = load_baseline(args.baseline, result["mode"])
    if baseline is None:
        print(
            f"no {result['mode']} baseline in {args.baseline}: gate skipped "
            f"(run with --write-baseline to record one)"
        )
        return 0

    violations = compare(result, baseline, max_ratio=args.max_ratio)
    for head, measured in sorted(result["heads"].items()):
        total = sum(measured["queries"].values())
        print(
            f"{head}: {total} queries, {measured['wall_ms']:.0f} ms wall, "
            f"{measured['cache_hits']} cache hits"
        )
    gated, entries = latency_coverage(baseline)
    print(
        f"latency: {gated} of {entries} primitive entries above the floor "
        f"(gated)"
    )
    unguarded = unguarded_heads(result, baseline)
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
