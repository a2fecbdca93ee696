"""Profiling and regression attribution over the trace streams.

A regression-gate failure that only says "2x slower" is not actionable;
this module turns the span/event streams of :mod:`repro.obs.tracer`
into *attribution*:

- **hotspot profiles** (:func:`profile_from_records`) — per-span-name
  inclusive vs. exclusive (self) time and per-phase primitive
  breakdowns (calls, wall time, cache hit-rate, rows scanned), rendered
  from the :class:`~repro.obs.live.RunStats` fold of an in-memory
  :class:`~repro.obs.tracer.Tracer`, a re-read ``repro/trace@1``
  JSONL file or a ``repro/live@1`` capture (an archived run's
  ``live.jsonl``);
- **flamegraph export** — collapsed-stack lines
  (:func:`collapsed_stacks`), walking the run's span-by-span stream
  with the primitive events folded in as leaf frames;
  ``flamegraph.pl`` renders the file, and https://speedscope.app
  imports it as is;
- **trace diffing** (:func:`diff_views` / :func:`render_diff`) — two
  traces, live captures or ``repro/metrics@1`` files compared,
  regressions ranked by absolute self-time delta, with
  cache-hit-rate, call-count and rows-scanned deltas as the
  explanation column.

A trace and a live capture are read the same way: a trace replays
(:func:`~repro.obs.export.replay_trace`) into exactly the records a
live capture already holds, so both feed the one fold.

Everything here is a *pure view* over recorded data — like
:func:`repro.evaluation.counters.cost_report_from_trace`, profiling a
run issues zero extension queries (``benchmarks/bench_s9_profile.py``
enforces this).

Exclusive (self) time is the span's duration minus the durations of its
direct child spans and of the primitive events recorded directly under
it, clamped at zero: a still-open parent exported mid-run reports its
elapsed-so-far, which may be smaller than the sum of finished children,
and must not go negative.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple, TYPE_CHECKING

from repro.obs.export import (
    METRICS_FORMAT,
    TRACE_FORMAT,
    replay_trace,
    trace_records,
)
from repro.obs.live import LIVE_FORMAT, RunStats
from repro.obs.provenance import PROVENANCE_FORMAT
from repro.util.jsonl import load_jsonl
from repro.util.text import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer

__all__ = [
    "profile_from_stats",
    "profile_from_records",
    "profile_summary",
    "render_profile",
    "collapsed_stacks",
    "write_collapsed",
    "detect_export_kind",
    "load_export",
    "view_from_export",
    "diff_views",
    "render_diff",
]

#: the live@1 record types a profile folds (progress and end carry no
#: time of their own)
_TIMED = ("span-open", "span-close", "primitive")


def _ms(value: float) -> float:
    return round(value, 6)


def _hit_rate(hits: int, calls: int) -> float:
    return round(hits / calls, 4) if calls else 0.0


# ----------------------------------------------------------------------
# hotspot profile
# ----------------------------------------------------------------------
def profile_from_stats(stats: RunStats) -> Dict[str, Any]:
    """The hotspot profile rendered from one fold.

    ``spans`` has one row per span *name* (count, inclusive and self
    ms, any occurrence still open); ``phases`` per phase name its
    inclusive/self ms and a per-primitive breakdown (calls, wall time,
    cache hits/misses and hit-rate, rows scanned) of the primitives
    under it; ``primitives`` the same over the whole run; ``totals``
    run-level rollups.
    """

    def breakdown(rollups: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
        return {
            name: dict(
                row,
                duration_ms=_ms(row["duration_ms"]),
                hit_rate=_hit_rate(row["cache_hits"], row["calls"]),
            )
            for name, row in rollups.items()
        }

    spans = {
        name: dict(row, inclusive_ms=_ms(row["inclusive_ms"]), self_ms=_ms(row["self_ms"]))
        for name, row in stats.spans.items()
    }
    phases = {}
    for name, row in spans.items():
        if row["kind"] == "phase":
            primitives = breakdown(stats.phases.get(name, {}))
            phases[name] = {
                "inclusive_ms": row["inclusive_ms"],
                "self_ms": row["self_ms"],
                "queries": sum(p["calls"] for p in primitives.values()),
                "primitives": primitives,
            }
    totals = stats.totals()
    return {
        "spans": spans,
        "phases": phases,
        "primitives": breakdown(stats.primitives),
        "totals": {
            key: totals[key]
            for key in ("duration_ms", "queries", "spans", "query_duration_ms")
        },
    }


def _stream(records: List[Dict[str, Any]]) -> Iterable[Dict[str, Any]]:
    """A trace's or a live capture's span and primitive records, in order.

    A ``repro/live@1`` capture (header first) already holds them; a
    ``repro/trace@1`` list is replayed into the same shape.
    """
    if records and records[0].get("format") == LIVE_FORMAT:
        return (r for r in records if r.get("type") in _TIMED)
    return replay_trace(records)


def profile_from_records(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The hotspot profile of one trace's or live capture's records."""
    return profile_from_stats(RunStats.fold(_stream(records)))


def profile_summary(tracer: "Tracer") -> Dict[str, Any]:
    """The hotspot profile computed live from *tracer*."""
    return profile_from_records(trace_records(tracer))


def render_profile(profile: Dict[str, Any]) -> str:
    """Render a hotspot profile as hotspot + per-phase tables."""
    total = profile["totals"]["duration_ms"] or 1.0
    lines = [
        f"# Hotspots — {profile['totals']['spans']} span(s), "
        f"{profile['totals']['queries']} quer"
        f"{'y' if profile['totals']['queries'] == 1 else 'ies'}, "
        f"{profile['totals']['duration_ms']:.3f} ms total"
    ]
    rows = []
    ranked = sorted(profile["spans"].items(), key=lambda kv: kv[1]["self_ms"], reverse=True)
    for name, stats in ranked:
        open_mark = " (open)" if stats["open"] else ""
        rows.append(
            [
                f"{name}{open_mark}",
                stats["kind"],
                stats["count"],
                f"{stats['inclusive_ms']:.3f}",
                f"{stats['self_ms']:.3f}",
                f"{100.0 * stats['self_ms'] / total:.1f}%",
            ]
        )
    lines.append(format_table(["span", "kind", "count", "incl ms", "self ms", "% self"], rows))
    if profile["primitives"]:
        lines.append("")
        lines.append("# Primitives by phase")
        rows = []
        sections = list(profile["phases"].items())
        sections.append(("(run total)", {"primitives": profile["primitives"]}))
        for phase, stats in sections:
            for primitive, p in sorted(
                stats["primitives"].items(),
                key=lambda kv: kv[1]["duration_ms"],
                reverse=True,
            ):
                rows.append(
                    [
                        phase,
                        primitive,
                        p["calls"],
                        f"{p['duration_ms']:.3f}",
                        f"{100.0 * p['hit_rate']:.0f}%",
                        p["rows_touched"],
                    ]
                )
        lines.append(
            format_table(["phase", "primitive", "calls", "total ms", "hit rate", "rows"], rows)
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# flamegraph exporters
# ----------------------------------------------------------------------
def collapsed_stacks(records: List[Dict[str, Any]]) -> List[str]:
    """A trace or live capture as collapsed-stack lines for ``flamegraph.pl``.

    One line per unique stack — span names root-to-leaf joined by
    ``;``, primitive events folded in as leaf frames — with the stack's
    total *self* time in integer microseconds as the sample value.
    Zero-weight stacks are kept (weight 1 µs minimum would lie; a zero
    line is valid collapsed-stack input and keeps the frame visible).
    """
    weights: Dict[str, int] = {}
    stack: List[List[Any]] = []  # per open span: [stack, child ms]

    def add(stack_name: str, ms: float) -> None:
        weights[stack_name] = weights.get(stack_name, 0) + int(round(ms * 1000))

    for record in _stream(records):
        if record["type"] == "span-open":
            name = f"{stack[-1][0]};{record['name']}" if stack else record["name"]
            stack.append([name, 0.0])
            continue
        if record["type"] == "span-close":
            name, child_ms = stack.pop()
            add(name, max(0.0, record["duration_ms"] - child_ms))
        else:  # primitives outside any span go under a synthetic root
            parent = stack[-1][0] if stack else "(no span)"
            add(f"{parent};{record['primitive']}", record["duration_ms"])
        if stack:
            stack[-1][1] += record["duration_ms"]
    return [f"{name} {weight}" for name, weight in sorted(weights.items())]


def write_collapsed(records: List[Dict[str, Any]], path: str) -> None:
    """Write the collapsed-stack lines to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in collapsed_stacks(records):
            handle.write(line)
            handle.write("\n")


# ----------------------------------------------------------------------
# export-kind detection (shared by profile / summarize / diff verbs)
# ----------------------------------------------------------------------
#: schema tag → human label, for one-line wrong-file-kind errors
_KIND_LABELS = {
    TRACE_FORMAT: "trace",
    METRICS_FORMAT: "metrics",
    PROVENANCE_FORMAT: "provenance",
    # the speedscope documents earlier versions wrote
    "repro/profile@1": "profile",
    LIVE_FORMAT: "live-capture",
    "repro/bench@1": "bench-metrics",
    "repro/bench-baseline@1": "bench-baseline",
    # the per-run history earlier versions of the gate appended
    "repro/bench-history@1": "bench-history",
}


def detect_export_kind(path: str) -> Tuple[str, Any]:
    """Sniff which export format *path* holds.

    Returns ``(kind, payload)`` where *kind* is a ``repro/...@N``
    schema tag (or ``"unknown"``) and *payload* is the parsed document
    — the record list for JSONL exports, the JSON document otherwise.
    Raises :class:`ValueError` for files that parse as neither.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError:
        document = None
    except UnicodeDecodeError:
        raise ValueError(f"{path!r} is not a JSON or JSONL export")
    if isinstance(document, dict):
        tag = document.get("format") or document.get("exporter")
        return (tag if tag in _KIND_LABELS else "unknown", document)
    if document is not None:
        return ("unknown", document)
    records = load_jsonl(path)  # raises ValueError with the line number
    tag = records[0].get("format") if records else None
    return (tag if tag in _KIND_LABELS else "unknown", records)


def load_export(path: str, expected: str) -> Any:
    """Load *path*, requiring the *expected* schema tag.

    On a mismatch, raises :class:`ValueError` with a one-line message
    naming what the file actually is — handing ``repro profile`` a
    metrics file fails with "is a repro/metrics@1 metrics file", not a
    traceback.
    """
    kind, payload = detect_export_kind(path)
    if kind != expected:
        actual = (
            f"a {kind} {_KIND_LABELS[kind]} file"
            if kind in _KIND_LABELS
            else "not a recognized repro export"
        )
        raise ValueError(
            f"{path!r} is {actual}; expected a {expected} "
            f"{_KIND_LABELS.get(expected, 'export')}"
        )
    return payload


# ----------------------------------------------------------------------
# trace diffing
# ----------------------------------------------------------------------
def view_from_export(kind: str, payload: Any) -> Dict[str, Any]:
    """Reduce a trace, live capture or metrics export to one *view*.

    A view has ``spans`` (name → self/inclusive ms; empty for metrics
    files), ``phases`` and ``setup`` (name → duration) and
    ``primitives`` (name → calls/duration/hit-rate/rows) — the common
    denominator the diff engine ranks over.
    """
    if kind in (TRACE_FORMAT, LIVE_FORMAT):
        profile = profile_from_records(payload)
        return {
            "source": "trace" if kind == TRACE_FORMAT else "live",
            "spans": profile["spans"],
            "phases": {name: stats["inclusive_ms"] for name, stats in profile["phases"].items()},
            "setup": {
                name: stats["inclusive_ms"]
                for name, stats in profile["spans"].items()
                if stats["kind"] == "setup"
            },
            "primitives": profile["primitives"],
        }
    if kind == METRICS_FORMAT:
        primitives = {}
        for name, stats in payload.get("primitives", {}).items():
            primitives[name] = dict(stats)
            primitives[name]["hit_rate"] = _hit_rate(
                stats.get("cache_hits", 0), stats.get("calls", 0)
            )
        durations = {
            section: {
                name: stats["duration_ms"]
                for name, stats in payload.get(section, {}).items()
            }
            for section in ("phases", "setup")
        }
        return {"source": "metrics", "spans": {}, **durations, "primitives": primitives}
    raise ValueError(f"cannot diff a {kind} export")


def _delta_row(name: str, a: float, b: float) -> Dict[str, Any]:
    return {"name": name, "a_ms": _ms(a), "b_ms": _ms(b), "delta_ms": _ms(b - a)}


def diff_views(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Compare two views; rank every section by absolute time delta.

    ``spans`` ranks per-span-name *self*-time deltas (present only when
    both sides came from full traces), ``phases`` and ``setup`` rank
    inclusive duration deltas, and ``primitives`` ranks per-primitive
    wall deltas with cache-hit-rate, call-count and rows-scanned deltas
    attached as the explanation.
    """
    spans: List[Dict[str, Any]] = []
    if a["spans"] and b["spans"]:
        for name in sorted(set(a["spans"]) | set(b["spans"])):
            sa = a["spans"].get(name, {})
            sb = b["spans"].get(name, {})
            row = _delta_row(name, sa.get("self_ms", 0.0), sb.get("self_ms", 0.0))
            row["kind"] = sb.get("kind", sa.get("kind", "span"))
            spans.append(row)
        spans.sort(key=lambda r: abs(r["delta_ms"]), reverse=True)

    durations = {}
    for section in ("phases", "setup"):
        da, db = a.get(section, {}), b.get(section, {})
        rows = [
            _delta_row(name, da.get(name, 0.0), db.get(name, 0.0))
            for name in sorted(set(da) | set(db))
        ]
        durations[section] = sorted(rows, key=lambda r: abs(r["delta_ms"]), reverse=True)

    primitives: List[Dict[str, Any]] = []
    for name in sorted(set(a["primitives"]) | set(b["primitives"])):
        pa = a["primitives"].get(name, {})
        pb = b["primitives"].get(name, {})
        row = _delta_row(name, pa.get("duration_ms", 0.0), pb.get("duration_ms", 0.0))
        row.update(
            calls_a=pa.get("calls", 0),
            calls_b=pb.get("calls", 0),
            hit_rate_a=pa.get("hit_rate", 0.0),
            hit_rate_b=pb.get("hit_rate", 0.0),
            rows_a=pa.get("rows_touched", 0),
            rows_b=pb.get("rows_touched", 0),
        )
        row["explanation"] = _explain_primitive(row)
        primitives.append(row)
    primitives.sort(key=lambda r: abs(r["delta_ms"]), reverse=True)

    return {"spans": spans, **durations, "primitives": primitives}


def _explain_primitive(row: Dict[str, Any]) -> str:
    """Why did this primitive's cost move?  Best-effort, data-driven."""
    reasons: List[str] = []
    hit_delta = row["hit_rate_b"] - row["hit_rate_a"]
    if abs(hit_delta) >= 0.005:
        reasons.append(
            f"cache hit-rate {100 * row['hit_rate_a']:.0f}% -> "
            f"{100 * row['hit_rate_b']:.0f}% ({100 * hit_delta:+.0f} pts)"
        )
    call_delta = row["calls_b"] - row["calls_a"]
    if call_delta:
        reasons.append(f"calls {row['calls_a']} -> {row['calls_b']} ({call_delta:+d})")
    rows_delta = row["rows_b"] - row["rows_a"]
    if rows_delta:
        reasons.append(f"rows scanned {row['rows_a']} -> {row['rows_b']} ({rows_delta:+d})")
    return "; ".join(reasons) if reasons else "same calls, same cache behavior"


def render_diff(diff: Dict[str, Any], a_label: str = "A", b_label: str = "B") -> str:
    """Render a diff as ranked regression tables (worst delta first)."""
    lines = [f"# Trace diff — {a_label} vs {b_label} (ranked by |delta|)"]
    if diff["spans"]:
        rows = [
            [r["name"], r["kind"], f"{r['a_ms']:.3f}", f"{r['b_ms']:.3f}", f"{r['delta_ms']:+.3f}"]
            for r in diff["spans"]
        ]
        lines.append("")
        lines.append("## Self time by span")
        lines.append(
            format_table(["span", "kind", f"{a_label} ms", f"{b_label} ms", "delta ms"], rows)
        )
    durations = [("phases", "## Phase durations", "phase"), ("setup", "## Setup steps", "step")]
    for section, title, column in durations[1 if diff["spans"] else 0:]:
        if diff.get(section):
            rows = [
                [r["name"], f"{r['a_ms']:.3f}", f"{r['b_ms']:.3f}", f"{r['delta_ms']:+.3f}"]
                for r in diff[section]
            ]
            lines.append("")
            lines.append(title)
            lines.append(
                format_table([column, f"{a_label} ms", f"{b_label} ms", "delta ms"], rows)
            )
    if diff["primitives"]:
        rows = [
            [
                r["name"],
                f"{r['a_ms']:.3f}",
                f"{r['b_ms']:.3f}",
                f"{r['delta_ms']:+.3f}",
                r["explanation"],
            ]
            for r in diff["primitives"]
        ]
        lines.append("")
        lines.append("## Primitives")
        lines.append(
            format_table(
                ["primitive", f"{a_label} ms", f"{b_label} ms", "delta ms", "explanation"],
                rows,
            )
        )
    if len(lines) == 1:
        lines.append("(both sides are empty — nothing to compare)")
    return "\n".join(lines)
