"""Live telemetry: the ``repro/live@1`` record history of one tracer.

Every :class:`~repro.obs.tracer.Tracer` owns one :class:`LiveBus` from
construction and records its run into it, so a run's records are
observable while the run is still going and stay readable after it:

- :class:`LiveBus` — a thread-safe, append-only record history.  Every
  span open, span close, primitive call and progress tick becomes
  one ``repro/live@1`` dict with a monotonically increasing ``seq``;
  the history keeps the whole run from before its first span.  It is
  the one recording of a run: ``--trace`` writes it, the archive
  stores it, and every view folds it.
- :class:`RunStats` — the one fold of a run's telemetry (per span
  name, per phase, per primitive, per backend) the bus
  maintains on every publish, so a metrics scrape reads the totals in
  O(1) instead of rescanning the history.  Every metrics view renders
  it.
- **The cursor contract** — a reader keeps the ``seq`` of the last
  record it has seen and pages :meth:`LiveBus.history` past it; the
  page costs O(records returned), not O(retained history).  When the
  page is empty, :meth:`LiveBus.wait` blocks until a record past the
  cursor is published or a timeout elapses.  Readers never slow the
  publisher and cannot miss a retained record: there is no per-reader
  queue to overflow.  The SSE endpoint (``Last-Event-ID`` is the
  cursor) and every in-process watcher read this way.

Publishing with nobody waiting takes no more than the lock, the append
and the fold; the S13 benchmark checks that a watched run asks exactly
the queries of a run nobody reads.

Record shapes (all carry ``type``, ``seq`` and ``ts_ms`` — milliseconds
since the bus' first record):

- ``span-open`` — ``span``, ``parent``, ``name``, ``kind``,
  ``attributes`` (captures from versions that synthesized open spans
  for a mid-run attach may carry ``snapshot: true``; readers ignore
  it);
- ``span-close`` — ``span``, ``name``, ``kind``, ``duration_ms``,
  ``attributes`` (the attributes as of close, counts included);
- ``primitive`` — ``span``, ``primitive``, ``backend``, ``relations``,
  ``attributes`` (the call's attribute lists; absent from captures of
  older versions), ``duration_ms``, ``cache_hit``, ``rows_touched``;
- ``progress`` — ``span``, ``phase``, ``message``, optional
  ``current``/``total`` plus any caller attributes;
- ``end`` — the clean end-of-run sentinel the job manager publishes
  (``job``, ``state``); consumers stop tailing when they see it.

:func:`write_live_jsonl` / :func:`read_live_jsonl` round-trip a
captured stream with the same JSONL discipline as every other export
(header record first); ``scripts/validate_exports.py`` exercises the
round-trip in CI.  :mod:`repro.obs.export` reads such a capture (or a
legacy ``repro/trace@1`` file) for every view.
"""

from __future__ import annotations

import time
import threading
from typing import Any, Dict, Iterable, List, Optional

from repro.util.jsonl import load_jsonl, save_jsonl

__all__ = [
    "LIVE_FORMAT",
    "LIVE_EVENT_TYPES",
    "RunStats",
    "LiveBus",
    "live_records",
    "write_live_jsonl",
    "read_live_jsonl",
]

#: the versioned format tag of the live-event stream
LIVE_FORMAT = "repro/live@1"

#: every record type the bus publishes
LIVE_EVENT_TYPES = (
    "span-open",
    "span-close",
    "primitive",
    "progress",
    "end",
)


def _ms(seconds: float) -> float:
    """Seconds → milliseconds, rounded to survive a JSON round-trip."""
    return round(seconds * 1000.0, 6)


#: zero rows: a span-table row (per kind) and a primitive rollup
_SPAN = {"kind": "span", "count": 0, "inclusive_ms": 0.0, "self_ms": 0.0, "open": False}
_PHASE = dict(_SPAN, kind="phase")
_SETUP = dict(_SPAN, kind="setup")
_STEP = dict(_SPAN, kind="step")
_ROLLUP = {"calls": 0, "duration_ms": 0.0, "cache_hits": 0, "cache_misses": 0, "rows_touched": 0}


def _fold_into(mine: Dict[str, Any], theirs: Dict[str, Any]) -> Dict[str, Any]:
    """Add *theirs* into *mine* key by key, nested tables included.

    Numbers sum, ``open`` flags OR, a span's ``kind`` keeps the first
    value seen.  Returns *mine*.
    """
    for key, value in theirs.items():
        if isinstance(value, dict):
            _fold_into(mine.setdefault(key, {}), value)
        elif isinstance(value, str):
            mine.setdefault(key, value)
        elif isinstance(value, bool):
            mine[key] = mine.get(key, False) or value
        else:
            mine[key] = mine.get(key, 0) + value
    return mine


class _Column(dict):
    """One field of a fold table's rows (of one kind) as a dict.

    Assignment writes through, so a hand-built fold reads back what was
    written into it (``stats.phase_ms["IND"] = 12.5``).
    """

    def __init__(self, table, field, blank, nonzero=False) -> None:
        kind = blank.get("kind")
        super().__init__(
            (key, row[field]) for key, row in table.items()
            if (kind is None or row["kind"] == kind) and (row[field] or not nonzero)
        )
        self._write = (table, field, blank)

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        table, field, blank = self._write
        table.setdefault(key, dict(blank))[field] = value


class RunStats:
    """The one fold of a run's telemetry, behind every view of it.

    :meth:`observe` folds one ``repro/live@1`` record: the
    :class:`LiveBus` calls it on every publish, and a written capture
    (or a legacy ``repro/trace@1`` file) is read into it through
    :func:`repro.obs.export.capture_stream`.

    - ``spans`` — per span name: ``kind``, ``count``, ``inclusive_ms``,
      ``self_ms`` (minus direct children and primitives, clamped at
      zero per span) and ``open``;
    - ``primitives`` — per primitive ``calls``, ``duration_ms``,
      ``cache_hits``, ``cache_misses``, ``rows_touched``; ``phases`` —
      the same rollup per phase name, over the primitives under it;
    - ``backends`` — per backend ``calls`` and ``duration_ms``;
    - ``events`` (records by type), ``root_ms``.

    A record of a type outside :data:`LIVE_EVENT_TYPES` (the ``pool``
    records of captures written by older versions) is ignored, and so
    is the storage ``counters`` field such captures' primitive records
    may carry.

    Repeated names sum; :meth:`merge` adds a fold in (ledger eviction,
    archive restore).  ``phase_ms`` and the other flat totals below are
    derived from these tables.
    """

    __slots__ = ("events", "spans", "phases", "primitives", "backends",
                 "root_ms", "_open")

    #: the tables :meth:`merge` adds and :meth:`as_dict` stores
    TABLES = ("events", "spans", "phases", "primitives", "backends")

    def __init__(self) -> None:
        for table in self.TABLES:
            setattr(self, table, {})
        self.root_ms = 0.0
        #: open span id -> [its span-open record, enclosing phase
        #: names, child ms]
        self._open: Dict[Any, List[Any]] = {}

    def observe(self, record: Dict[str, Any]) -> None:
        """Fold one ``repro/live@1`` record into the tables."""
        kind = record["type"]
        if kind not in LIVE_EVENT_TYPES:
            return
        self.events[kind] = self.events.get(kind, 0) + 1
        if kind == "span-open":
            parent = self._open.get(record.get("parent"))
            phases = parent[1] if parent is not None else ()
            if record.get("kind") == "phase" and record["name"] not in phases:
                phases += (record["name"],)
            self._open[record["span"]] = [record, phases, 0.0]
        elif kind == "span-close":
            opened = self._open.pop(record.get("span"), None)
            ms = record.get("duration_ms", 0.0)
            row = self.spans.get(record["name"])
            if row is None:
                row = self.spans[record["name"]] = dict(_SPAN, kind=record.get("kind", "span"))
            row["count"] += 1
            row["inclusive_ms"] += ms
            row["self_ms"] += max(0.0, ms - opened[2]) if opened else ms
            row["open"] = row["open"] or bool(record.get("open"))
            if opened is not None:
                parent = self._open.get(opened[0].get("parent"))
                if parent is not None:
                    parent[2] += ms
                elif opened[0].get("parent") is None:
                    self.root_ms = max(self.root_ms, ms)
        elif kind == "primitive":
            ms = record.get("duration_ms", 0.0)
            opened = self._open.get(record.get("span"))
            rollups = [self.primitives]
            if opened is not None:
                opened[2] += ms
                rollups += [self.phases.setdefault(p, {}) for p in opened[1]]
            hit = "cache_hits" if record.get("cache_hit") else "cache_misses"
            for rollup in rollups:
                row = rollup.get(record["primitive"])
                if row is None:
                    row = rollup[record["primitive"]] = dict(_ROLLUP)
                row["calls"] += 1
                row["duration_ms"] += ms
                row[hit] += 1
                row["rows_touched"] += record.get("rows_touched", 0)
            backend = self.backends.get(record.get("backend", ""))
            if backend is None:
                backend = self.backends[record.get("backend", "")] = {
                    "calls": 0, "duration_ms": 0.0,
                }
            backend["calls"] += 1
            backend["duration_ms"] += ms

    @classmethod
    def fold(cls, records: Iterable[Dict[str, Any]]) -> "RunStats":
        """A fresh fold over *records* (``repro/live@1`` shape), in order."""
        stats = cls()
        for record in records:
            stats.observe(record)
        return stats

    # the flat totals /metrics and the archive trends read
    phase_runs = property(lambda self: _Column(self.spans, "count", _PHASE))
    phase_ms = property(lambda self: _Column(self.spans, "inclusive_ms", _PHASE))
    setup_ms = property(lambda self: _Column(self.spans, "inclusive_ms", _SETUP))
    step_runs = property(lambda self: _Column(self.spans, "count", _STEP))
    step_ms = property(lambda self: _Column(self.spans, "inclusive_ms", _STEP))
    primitive_calls = property(lambda self: _Column(self.primitives, "calls", _ROLLUP))
    primitive_cache_hits = property(
        lambda self: _Column(self.primitives, "cache_hits", _ROLLUP, nonzero=True)
    )

    def totals(self) -> Dict[str, Any]:
        """Run-level rollups: the ``totals`` of metrics@1."""
        rollups = self.primitives.values()
        return {
            "queries": sum(p["calls"] for p in rollups),
            "cache_hits": sum(p["cache_hits"] for p in rollups),
            "rows_touched": sum(p["rows_touched"] for p in rollups),
            "query_duration_ms": round(sum(p["duration_ms"] for p in rollups), 6),
            "duration_ms": self.root_ms,
            "spans": sum(row["count"] for row in self.spans.values()),
        }

    def merge(self, other: "RunStats") -> None:
        """Add *other*'s tables into this one."""
        _fold_into(self._tables(), other._tables())
        self.root_ms = max(self.root_ms, other.root_ms)

    def copy(self) -> "RunStats":
        """An independent snapshot of the tables."""
        return RunStats.from_dict(self.as_dict())

    def as_dict(self) -> Dict[str, Any]:
        """The tables as one JSON-ready document (archive storage)."""
        return dict(_fold_into({}, self._tables()), root_ms=self.root_ms)

    def _tables(self) -> Dict[str, Any]:
        return {table: getattr(self, table) for table in self.TABLES}

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "RunStats":
        """Rebuild a fold from :meth:`as_dict` output (archive restore).

        Manifests from before the fold kept spans carry the flat totals
        instead; they restore into the same tables.  The storage
        counters older manifests carry (``storage_counters``, a
        backend's ``counters``) are dropped.
        """
        stats = cls()
        _fold_into(stats._tables(), {t: document.get(t) or {} for t in cls.TABLES})
        for backend in stats.backends.values():
            backend.pop("counters", None)
        stats.root_ms = document.get("root_ms", 0.0)
        for name in ("phase_runs", "phase_ms", "setup_ms", "primitive_calls",
                     "primitive_cache_hits"):
            column = getattr(stats, name)
            for key, value in (document.get(name) or {}).items():
                column[key] = value
        return stats

    def __repr__(self) -> str:
        return f"RunStats(events={sum(self.events.values())})"


class LiveBus:
    """Thread-safe, append-only history of one tracer's live telemetry.

    Publication assigns each record a ``seq`` (1-based, monotonic) and a
    ``ts_ms`` relative to the bus' first record, appends it to the
    history and folds it into the running :class:`RunStats`, all under
    one lock, so every reader sees the single total order the history
    records.  Readers page :meth:`history` by cursor and block in
    :meth:`wait`; publishing wakes them only when one is waiting.

    The history keeps every record of the run: the record with ``seq``
    *n* sits at index *n* - 1, so a cursor page is one slice.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        #: signalled on publish, and only while :attr:`_waiting` > 0
        self._published = threading.Condition(self._lock)
        self._waiting = 0
        self._history: List[Dict[str, Any]] = []
        self._stats = RunStats()
        self._seq = 0
        #: the clock reading ``ts_ms`` counts from: the first record's
        self._base: Optional[float] = None

    # -- publication (the tracer side) ---------------------------------
    def publish(self, type: str, at: Optional[float] = None, **fields: Any) -> Dict[str, Any]:
        """Publish one record; returns it with ``seq``/``ts_ms`` set.

        *at* is the record's time on the bus clock (read now if None).
        """
        with self._lock:
            if at is None:
                at = self._clock()
            if self._base is None:
                self._base = at
            self._seq += 1
            record = {
                "type": type,
                "seq": self._seq,
                "ts_ms": _ms(at - self._base),
            }
            record.update(fields)
            self._history.append(record)
            self._stats.observe(record)
            if self._waiting:
                self._published.notify_all()
            return record

    # -- reading (the consumer side) -----------------------------------
    def history(self, since: int = 0) -> List[Dict[str, Any]]:
        """Every record with ``seq > since``, oldest first.

        Costs O(records returned): the page is one slice of the history.
        """
        with self._lock:
            return self._history[max(0, since):]

    def wait(self, after_seq: int, timeout: float) -> bool:
        """Block until a record past *after_seq* exists, or *timeout* ends.

        Returns True when :attr:`last_seq` exceeds *after_seq* (at once
        if it already does), False on timeout.
        """
        with self._lock:
            if self._seq > after_seq:
                return True
            self._waiting += 1
            try:
                return self._published.wait_for(
                    lambda: self._seq > after_seq, timeout
                )
            finally:
                self._waiting -= 1

    @property
    def last_seq(self) -> int:
        """The sequence number of the latest published record (0 = none)."""
        with self._lock:
            return self._seq

    def stats(self) -> RunStats:
        """A snapshot of the running aggregates."""
        with self._lock:
            return self._stats.copy()

    def calls(self) -> Dict[str, int]:
        """Primitive records so far, per primitive (read off the fold)."""
        with self._lock:
            return dict(self._stats.primitive_calls)

    def __repr__(self) -> str:
        with self._lock:
            return f"LiveBus(seq={self._seq})"


# ----------------------------------------------------------------------
# the repro/live@1 file format
# ----------------------------------------------------------------------
def live_records(source) -> List[Dict[str, Any]]:
    """A captured stream as JSON-ready records, header first.

    *source* is a :class:`LiveBus`, or any iterable of already-published
    record dicts (e.g. records parsed back out of an SSE capture).
    """
    records = source.history() if isinstance(source, LiveBus) else list(source)
    counts: Dict[str, int] = {}
    for record in records:
        counts[record["type"]] = counts.get(record["type"], 0) + 1
    header = {
        "type": "header",
        "format": LIVE_FORMAT,
        "events": len(records),
        "counts": counts,
    }
    return [header] + records


def write_live_jsonl(source, path: str) -> List[Dict[str, Any]]:
    """Write a captured stream to *path*; returns the records written."""
    records = live_records(source)
    save_jsonl(records, path)
    return records


def read_live_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a ``repro/live@1`` stream back, validating the header.

    Raises :class:`ValueError` when the header tag or its event count
    disagrees with the stream, or a record carries an unknown type.
    """
    records = load_jsonl(path)
    if not records or records[0].get("format") != LIVE_FORMAT:
        raise ValueError(f"not a {LIVE_FORMAT} stream: {path!r}")
    header, body = records[0], records[1:]
    if header.get("events") != len(body):
        raise ValueError(
            f"{path}: header claims {header.get('events')} event(s), "
            f"file carries {len(body)}"
        )
    for index, record in enumerate(body, start=1):
        if record.get("type") not in LIVE_EVENT_TYPES:
            raise ValueError(
                f"{path}: record {index} has unknown type "
                f"{record.get('type')!r}"
            )
    return records
