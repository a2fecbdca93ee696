"""Structured tracing: nested spans and primitive-level events.

The paper's efficiency argument (§6) is about *where* extension queries
go; the :class:`Tracer` makes that observable.  A tracer records a run
into the :class:`~repro.obs.live.LiveBus` it owns from construction, one
``repro/live@1`` record per span open and close (the pipeline opens a
root ``pipeline`` span and one ``phase`` span per algorithm; any caller
may open more), per extension-primitive call (recorded by the
:class:`~repro.relational.database.Database` primitive that answered
it, under the span it happened in) and per :meth:`Tracer.progress`
tick.

That history is the one recording of a run: ``--trace`` writes it, the
archive stores it, SSE tails it, and every view folds it, the query
counters and the provenance ledger included.  :attr:`Tracer.spans` and
:attr:`Tracer.events` are read-only views built from it.

Timestamps come from an injectable monotonic clock (default
:func:`time.perf_counter`), so tests can drive the tracer with a fake
clock and assert exact durations.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.live import LiveBus

__all__ = ["SpanRecord", "PrimitiveEvent", "Tracer", "PHASE_NAMES", "PRIMITIVES"]

#: the five pipeline phases, in execution order (§6-§7 of the paper)
PHASE_NAMES = (
    "IND-Discovery",
    "LHS-Discovery",
    "RHS-Discovery",
    "Restruct",
    "Translate",
)

#: the four instrumented extension primitives (§2 of the paper)
PRIMITIVES = ("count_distinct", "join_count", "fd_holds", "inclusion_holds")


@dataclass
class SpanRecord:
    """One timed interval: a pipeline phase or any caller-opened scope."""

    span_id: int
    parent_id: Optional[int]
    name: str
    kind: str = "span"
    start: float = 0.0
    end: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: the owning tracer's clock, for elapsed-so-far on open spans
    clock: Optional[Callable[[], float]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def open(self) -> bool:
        """True while the span has not been closed."""
        return self.end is None

    @property
    def duration(self) -> float:
        """Seconds between start and end.

        An *open* span reports the elapsed time so far against the
        tracer clock it was started on — so summarizing the trace of a
        crashed or still-running pipeline shows real durations, not
        zeros.  (Without a clock — a hand-built record — it reports
        0.0.)  Exports flag such spans as open.
        """
        if self.end is None:
            if self.clock is None:
                return 0.0
            return self.clock() - self.start
        return self.end - self.start

    def __repr__(self) -> str:
        state = " open" if self.open else ""
        return (
            f"SpanRecord({self.name!r}, kind={self.kind!r}, "
            f"duration={self.duration * 1000:.3f}ms{state})"
        )


@dataclass(frozen=True)
class PrimitiveEvent:
    """One instrumented extension-primitive call.

    ``relations``/``attributes`` mirror the call's arguments: one
    relation and one attribute tuple for ``count_distinct``, two of each
    for ``join_count``/``inclusion_holds``, and one relation with the
    ``(lhs, rhs)`` attribute tuples for ``fd_holds``.  ``rows_touched``
    is the number of stored rows a cold evaluation scans — 0 when the
    backend answered from a cache.  A read-only view of one
    ``primitive`` record.
    """

    span_id: Optional[int]
    primitive: str
    backend: str
    relations: Tuple[str, ...]
    attributes: Tuple[Tuple[str, ...], ...]
    duration: float
    cache_hit: bool
    rows_touched: int

    def __repr__(self) -> str:
        rels = ",".join(self.relations)
        hit = "hit" if self.cache_hit else "miss"
        return f"PrimitiveEvent({self.primitive} {rels} {hit})"




class Tracer:
    """Records the spans and events of one (or more) runs on its bus.

    The tracer itself holds only the clock, the stack of open
    :class:`SpanRecord` handles callers annotate, and the memory
    profiling switch; everything it records lives in :attr:`live_bus`.

    With ``profile_memory=True`` the tracer also tracks
    :mod:`tracemalloc` around every span: each closed span gains
    ``mem_peak_kb`` (the peak traced allocation observed while the span
    was open, child peaks included) and ``mem_current_kb`` (traced
    allocation at close) attributes.  tracemalloc's peak counter is
    global, so the tracer checkpoints it at every span boundary and
    propagates the reading to every span still open — nested peaks
    stay correct.  Opt-in because tracemalloc slows allocation-heavy
    code measurably; the default tracer never imports it.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        profile_memory: bool = False,
    ) -> None:
        self._clock = clock
        self._next_id = 1
        self._stack: List[SpanRecord] = []
        #: the run's one recording: every span boundary, primitive call
        #: and progress tick, as ``repro/live@1`` records
        self.live_bus = LiveBus(clock=clock)
        self._tracemalloc = None
        self._mem_peaks: Dict[int, int] = {}
        if profile_memory:
            import tracemalloc

            self._tracemalloc = tracemalloc
            if not tracemalloc.is_tracing():
                tracemalloc.start()

    @property
    def profiles_memory(self) -> bool:
        """True when the tracer records tracemalloc peaks per span."""
        return self._tracemalloc is not None

    def _memory_checkpoint(self) -> int:
        """Fold the global peak into every open span; reset the peak.

        Returns the current traced allocation in bytes.
        """
        current, peak = self._tracemalloc.get_traced_memory()
        for record in self._stack:
            tracked = self._mem_peaks.get(record.span_id, 0)
            self._mem_peaks[record.span_id] = max(tracked, peak)
        self._tracemalloc.reset_peak()
        return current

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    def now(self) -> float:
        """The tracer's monotonic clock (injectable for tests)."""
        return self._clock()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def start_span(self, name: str, kind: str = "span", **attributes: Any) -> SpanRecord:
        """Open a span under the current one; prefer :meth:`span`."""
        if self._tracemalloc is not None:
            current = self._memory_checkpoint()
            self._mem_peaks[self._next_id] = current
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            kind=kind,
            start=self.now(),
            attributes=dict(attributes),
            clock=self._clock,
        )
        self._next_id += 1
        self._stack.append(record)
        self.live_bus.publish(
            "span-open",
            at=record.start,
            span=record.span_id,
            parent=record.parent_id,
            name=name,
            kind=kind,
            attributes=dict(record.attributes),
        )
        return record

    def end_span(self, record: SpanRecord) -> SpanRecord:
        """Close *record* (and any unclosed children left on the stack).

        Closing a record that is *not* on the stack — already closed, or
        never started on this tracer — warns and closes only that
        record: it must not tear down every open span of the run.
        """
        if not any(top is record for top in self._stack):
            if record.end is None:
                self._close(record)
            warnings.warn(
                f"end_span: span {record.name!r} (id {record.span_id}) is not "
                f"on the span stack; open spans left untouched",
                RuntimeWarning,
                stacklevel=2,
            )
            return record
        current = self._memory_checkpoint() if self._tracemalloc is not None else None
        while self._stack:
            top = self._stack.pop()
            if current is not None:
                peak = self._mem_peaks.pop(top.span_id, current)
                top.attributes["mem_peak_kb"] = round(peak / 1024.0, 1)
                top.attributes["mem_current_kb"] = round(current / 1024.0, 1)
            self._close(top)
            if top is record:
                break
        return record

    def _close(self, record: SpanRecord) -> None:
        """Stamp *record*'s end and record its ``span-close``."""
        record.end = self.now()
        self.live_bus.publish(
            "span-close",
            at=record.end,
            span=record.span_id,
            name=record.name,
            kind=record.kind,
            duration_ms=round(record.duration * 1000.0, 6),
            attributes=dict(record.attributes),
        )

    @contextmanager
    def span(self, name: str, kind: str = "span", **attributes: Any) -> Iterator[SpanRecord]:
        """Context manager: a timed span around the enclosed work.

        Yields the live :class:`SpanRecord`, so callers can attach
        attributes computed inside the scope::

            with tracer.span("IND-Discovery", kind="phase") as span:
                result = step.run(...)
                span.attributes["inds"] = len(result.inds)
        """
        record = self.start_span(name, kind, **attributes)
        try:
            yield record
        finally:
            self.end_span(record)

    def current_span_id(self) -> Optional[int]:
        """The id of the innermost open span, or None outside any span."""
        return self._stack[-1].span_id if self._stack else None

    def current_phase(self) -> Optional[str]:
        """The innermost open span of kind ``phase``, or None."""
        for record in reversed(self._stack):
            if record.kind == "phase":
                return record.name
        return None

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def record_event(
        self,
        primitive: str,
        backend: str,
        relations: Tuple[str, ...],
        attributes: Tuple[Tuple[str, ...], ...],
        duration: float,
        cache_hit: bool,
        rows_touched: int,
    ) -> None:
        """Record one primitive call, attributed to the open span.

        :attr:`events` reads it back as a :class:`PrimitiveEvent`.
        """
        self.live_bus.publish(
            "primitive",
            span=self.current_span_id(),
            primitive=primitive,
            backend=backend,
            relations=list(relations),
            attributes=[list(a) for a in attributes],
            duration_ms=round(duration * 1000.0, 6),
            cache_hit=cache_hit,
            rows_touched=rows_touched,
        )

    def progress(
        self,
        message: str,
        current: Optional[int] = None,
        total: Optional[int] = None,
        **attributes: Any,
    ) -> None:
        """Record one ``progress`` tick under the open span.

        The record carries the innermost open span id and the innermost
        enclosing *phase* name, so consumers can render per-phase
        progress without reconstructing the span tree.
        """
        record: Dict[str, Any] = {
            "span": self.current_span_id(),
            "phase": self.current_phase(),
            "message": message,
        }
        if current is not None:
            record["current"] = current
        if total is not None:
            record["total"] = total
        record.update(attributes)
        self.live_bus.publish("progress", **record)

    @property
    def spans(self) -> List[SpanRecord]:
        """Every span opened so far, in start order.

        An open span is its live handle; a closed one is rebuilt from its
        records: attributes as of close, ``start`` in seconds since the
        history's first record.
        """
        history = self.live_bus.history()
        closes = {r["span"]: r for r in history if r["type"] == "span-close"}
        handles = {record.span_id: record for record in self._stack}
        spans = []
        for opened in history:
            if opened["type"] != "span-open":
                continue
            span = handles.get(opened["span"])
            if span is None:
                close = closes[opened["span"]]
                start = opened["ts_ms"] / 1000.0
                span = SpanRecord(
                    opened["span"],
                    opened["parent"],
                    opened["name"],
                    opened["kind"],
                    start,
                    start + close["duration_ms"] / 1000.0,
                    dict(close["attributes"]),
                )
            spans.append(span)
        return spans

    @property
    def events(self) -> List[PrimitiveEvent]:
        """Every primitive call recorded so far, in call order."""
        return [
            PrimitiveEvent(
                r["span"],
                r["primitive"],
                r["backend"],
                tuple(r["relations"]),
                tuple(map(tuple, r["attributes"])),
                r["duration_ms"] / 1000.0,
                r["cache_hit"],
                r["rows_touched"],
            )
            for r in self.live_bus.history()
            if r["type"] == "primitive"
        ]

    def __repr__(self) -> str:
        return f"Tracer({self.live_bus!r})"
