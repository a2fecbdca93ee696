"""Reading a recorded run, and the metrics and summary views of it.

A run is recorded once, as the ``repro/live@1`` capture of its
:class:`~repro.obs.live.LiveBus` (``repro run --trace FILE`` writes it
with :func:`~repro.obs.live.write_live_jsonl`; an archived run stores
it as ``live.jsonl``).  Every view reads a capture through
:func:`capture_stream`, which also replays a legacy ``repro/trace@1``
file — the format ``--trace`` wrote before — into the same records, so
old traces still read.  Nothing writes ``repro/trace@1`` any more.

Two views live here:

- **metrics JSON** (``repro/metrics@1``) — one flat document with
  per-phase durations and query counts, per-primitive call/latency/
  cache/row rollups, per-backend totals, and run totals, rendered from
  the one telemetry fold, :class:`~repro.obs.live.RunStats`
  (:func:`metrics_from_stats`; a written capture folds through
  :func:`metrics_from_records`), so the document ``--metrics`` writes
  from the live bus and one re-derived from the ``--trace`` file agree
  by construction;
- **the summary** (``repro trace summarize FILE``) — the span tree with
  per-span query counts, the primitive table, and the ``end`` record
  when the capture carries one (:func:`summarize_trace`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.live import LIVE_EVENT_TYPES, RunStats
from repro.util.jsonl import load_jsonl
from repro.util.text import format_table

__all__ = [
    "TRACE_FORMAT",
    "METRICS_FORMAT",
    "read_trace_jsonl",
    "replay_trace",
    "capture_stream",
    "metrics_from_stats",
    "metrics_from_records",
    "write_metrics_json",
    "summarize_trace",
]

#: the legacy trace format: read-only, replayed into live records
TRACE_FORMAT = "repro/trace@1"
METRICS_FORMAT = "repro/metrics@1"


def read_trace_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a legacy ``repro/trace@1`` file back (header included).

    Raises :class:`ValueError` for a malformed line (with its line
    number) or when the header is not a ``repro/trace@1`` header.
    """
    records = load_jsonl(path)
    if not records or records[0].get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} trace: {path!r}")
    return records


def replay_trace(records: List[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    """A trace's records as the ``repro/live@1`` records a bus publishes.

    Each span becomes ``span-open``, then its events (as ``primitive``
    records) and child spans in record order, then ``span-close``; a
    still-open span closes flagged ``open`` at its elapsed-so-far.
    Spans and events whose parent is not in the trace replay at top
    level.
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


def capture_stream(records: List[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    """A recorded run's body records, in publication order.

    *records* is a ``repro/live@1`` capture (header optional) or a
    legacy ``repro/trace@1`` list, which :func:`replay_trace` turns
    into the same records.  A span the capture opened but never closed
    (a run captured mid-flight) closes at the end, innermost first,
    flagged ``open`` at its elapsed-so-far: the capture's last
    timestamp minus its own.  Every view reads a run through here.
    """
    if records and records[0].get("format") == TRACE_FORMAT:
        yield from replay_trace(records)
        return
    opened: Dict[Any, Dict[str, Any]] = {}
    last_ms = 0.0
    for record in records:
        if record.get("type") not in LIVE_EVENT_TYPES:
            continue
        last_ms = record.get("ts_ms", last_ms)
        if record["type"] == "span-open":
            opened[record["span"]] = record
        elif record["type"] == "span-close":
            opened.pop(record["span"], None)
        yield record
    for span in reversed(list(opened.values())):
        yield dict(
            span, type="span-close", open=True,
            duration_ms=round(last_ms - span.get("ts_ms", 0.0), 6),
        )


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
    """The flat metrics document of one capture's (or trace's) records."""
    return metrics_from_stats(RunStats.fold(capture_stream(records)))


def write_metrics_json(stats: RunStats, path: str) -> None:
    """Write the flat metrics document of *stats* as one JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(metrics_from_stats(stats), handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# human-readable rendering (repro trace summarize)
# ----------------------------------------------------------------------
def summarize_trace(records: List[Dict[str, Any]]) -> str:
    """Render a capture or trace as a span tree plus primitive table.

    A span's query count is how far the fold's primitive count moved
    between its open and close — its subtree's primitives.  A capture
    that carries an ``end`` record ends with it.
    """
    stats = RunStats()
    lines: List[str] = []
    opened: Dict[int, tuple] = {}
    end: Optional[Dict[str, Any]] = None
    for record in capture_stream(records):
        stats.observe(record)
        if record["type"] == "end":
            end = record
        elif record["type"] == "span-open":
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
    if end is not None:
        lines.append("")
        lines.append(f"# End — {end.get('job', '?')} finished {end.get('state') or 'unknown'}")
    return "\n".join(lines)
