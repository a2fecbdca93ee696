"""Trace and metrics exporters, and their file formats.

Two artifacts can be written from one :class:`~repro.obs.tracer.Tracer`:

- **JSONL trace** (``repro/trace@1``) — one JSON object per line.  The
  first line is a header; every further line is a ``span`` or ``event``
  record, ordered by start time.  Timestamps are milliseconds relative
  to the earliest record, so traces are diffable across runs and
  machines.
- **metrics JSON** (``repro/metrics@1``) — one flat document with
  per-phase durations and query counts, per-primitive call/latency/
  cache/row rollups, per-backend totals, and run totals.

The metrics document renders the one telemetry fold,
:class:`~repro.obs.live.RunStats`: a trace's records are replayed into
it (:func:`replay_trace`) as the live records a bus would have
published, so a summary computed live from a tracer, one computed from
a written-and-reread JSONL file and one rendered from a job's live bus
agree by construction.  ``repro trace summarize FILE`` renders the same
replay as a span tree plus primitive table.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, TYPE_CHECKING

from repro.obs.live import RunStats
from repro.util.jsonl import load_jsonl, save_jsonl
from repro.util.text import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer

__all__ = [
    "TRACE_FORMAT",
    "METRICS_FORMAT",
    "trace_records",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "replay_trace",
    "metrics_from_stats",
    "metrics_from_records",
    "metrics_summary",
    "write_metrics_json",
    "summarize_trace",
]

TRACE_FORMAT = "repro/trace@1"
METRICS_FORMAT = "repro/metrics@1"


def _ms(seconds: float) -> float:
    """Seconds → milliseconds, rounded to survive a JSON round-trip."""
    return round(seconds * 1000.0, 6)


def trace_records(tracer: "Tracer") -> List[Dict[str, Any]]:
    """The tracer's streams as JSON-ready records (header first)."""
    starts = [s.start for s in tracer.spans] + [e.start for e in tracer.events]
    base = min(starts) if starts else 0.0
    rows: List[Dict[str, Any]] = []
    for span in tracer.spans:
        row = {
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "kind": span.kind,
            "start_ms": _ms(span.start - base),
            "duration_ms": _ms(span.duration),
            "attributes": dict(span.attributes),
        }
        if span.open:
            # a crashed or still-running scope: duration is elapsed-so-far
            row["open"] = True
        rows.append(row)
    for event in tracer.events:
        rows.append({
            "type": "event",
            "span": event.span_id,
            "primitive": event.primitive,
            "backend": event.backend,
            "relations": list(event.relations),
            "attributes": [list(a) for a in event.attributes],
            "start_ms": _ms(event.start - base),
            "duration_ms": _ms(event.duration),
            "cache_hit": event.cache_hit,
            "rows_touched": event.rows_touched,
        })
    rows.sort(key=lambda r: (r["start_ms"], 0 if r["type"] == "span" else 1))
    header = {
        "type": "trace",
        "format": TRACE_FORMAT,
        "spans": len(tracer.spans),
        "events": len(tracer.events),
    }
    return [header] + rows


def write_trace_jsonl(tracer: "Tracer", path: str) -> None:
    """Write the trace as JSONL (header line + one record per line)."""
    save_jsonl(trace_records(tracer), path)


def read_trace_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace back into its records (header included).

    Raises :class:`ValueError` for a malformed line (with its line
    number) or when the header is not a ``repro/trace@1`` header.
    """
    records = load_jsonl(path)
    if not records or records[0].get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} trace: {path!r}")
    return records


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def replay_trace(records: List[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    """A trace's records as the ``repro/live@1`` records a bus publishes.

    Each span becomes ``span-open``, then its events (as ``primitive``
    records) and child spans in record order, then ``span-close``; a
    still-open span closes flagged ``open`` at its elapsed-so-far.
    Spans and events whose parent is not in the trace replay at top
    level.  This is how a trace is folded into
    :class:`~repro.obs.live.RunStats` — there is no second fold.
    """
    spans = {r["id"] for r in records if r.get("type") == "span"}
    below: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for record in records:
        if record.get("type") in ("span", "event"):
            owner = record["parent" if record["type"] == "span" else "span"]
            below.setdefault(owner if owner in spans else None, []).append(record)

    def walk(owner: Optional[int]) -> Iterator[Dict[str, Any]]:
        for record in below.get(owner, ()):
            if record["type"] == "event":
                yield dict(record, type="primitive")
            else:
                yield dict(record, type="span-open", span=record["id"])
                yield from walk(record["id"])
                yield dict(record, type="span-close", span=record["id"])

    return walk(None)


def metrics_from_stats(stats: RunStats) -> Dict[str, Any]:
    """The flat metrics document rendered from one fold."""

    def rounded(row: Dict[str, Any]) -> Dict[str, Any]:
        return dict(row, duration_ms=round(row["duration_ms"], 6))

    return {
        "format": METRICS_FORMAT,
        "phases": {
            name: {
                "duration_ms": round(ms, 6),
                "queries": sum(p["calls"] for p in stats.phases.get(name, {}).values()),
            }
            for name, ms in stats.phase_ms.items()
        },
        "setup": {name: {"duration_ms": round(ms, 6)} for name, ms in stats.setup_ms.items()},
        "steps": {
            name: {"count": stats.step_runs[name], "duration_ms": round(ms, 6)}
            for name, ms in stats.step_ms.items()
        },
        "primitives": {n: rounded(row) for n, row in stats.primitives.items()},
        "backends": {n: rounded(row) for n, row in stats.backends.items()},
        "totals": stats.totals(),
    }


def metrics_from_records(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The flat metrics document for one trace's records."""
    return metrics_from_stats(RunStats.fold(replay_trace(records)))


def metrics_summary(tracer: "Tracer") -> Dict[str, Any]:
    """The metrics document computed live from *tracer*."""
    return metrics_from_records(trace_records(tracer))


def write_metrics_json(tracer: "Tracer", path: str) -> None:
    """Write the flat metrics summary as one JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(metrics_summary(tracer), handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# human-readable rendering (repro trace summarize)
# ----------------------------------------------------------------------
def summarize_trace(records: List[Dict[str, Any]]) -> str:
    """Render a trace as a span tree plus per-primitive rollup table.

    A span's query count is how far the fold's primitive count moved
    between its replayed open and close — its subtree's primitives.
    """
    stats = RunStats()
    lines: List[str] = []
    opened: Dict[int, tuple] = {}
    for record in replay_trace(records):
        stats.observe(record)
        if record["type"] == "span-open":
            opened[record["span"]] = (len(lines), len(opened), stats.events.get("primitive", 0))
            lines.append("")
        elif record["type"] == "span-close":
            line, depth, before = opened.pop(record["span"])
            queries = stats.events.get("primitive", 0) - before
            extra = "".join(
                f" {k}={v}" for k, v in sorted(record.get("attributes", {}).items())
            )
            open_mark = " (open)" if record.get("open") else ""
            lines[line] = (
                f"{'  ' * depth}- {record['name']} [{record['kind']}]{open_mark} "
                f"{record['duration_ms']:.3f} ms, {queries} quer{'y' if queries == 1 else 'ies'}{extra}"
            )
    totals = stats.totals()
    lines.insert(0, f"# Trace — {totals['spans']} span(s), {totals['queries']} event(s)")

    if stats.primitives:
        rows = [
            [
                name,
                row["calls"],
                f"{row['duration_ms']:.3f}",
                row["cache_hits"],
                row["rows_touched"],
            ]
            for name, row in sorted(stats.primitives.items())
        ]
        lines.append("")
        lines.append("# Primitives")
        lines.append(
            format_table(
                ["primitive", "calls", "total ms", "cache hits", "rows touched"],
                rows,
            )
        )
    return "\n".join(lines)
