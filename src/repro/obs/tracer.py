"""Structured tracing: nested spans and primitive-level events.

The paper's efficiency argument (§6) is about *where* extension queries
go; the :class:`Tracer` makes that observable.  One tracer collects two
ordered streams for a reverse-engineering run:

- **spans** — timed, named, nested intervals.  The pipeline opens one
  root ``pipeline`` span and one ``phase`` span per algorithm
  (IND-Discovery, LHS-Discovery, RHS-Discovery, Restruct, Translate);
  any caller may open further spans around its own work.
- **events** — one :class:`PrimitiveEvent` per instrumented extension
  primitive (``count_distinct``, ``join_count``, ``fd_holds``,
  ``inclusion_holds``), recorded by the
  :class:`~repro.obs.instrument.InstrumentedBackend` wrapper with wall
  time, backend kind, cache hit/miss and rows touched.  Each event
  carries the id of the span it happened under, so per-phase query
  accounting falls out of the stream.

The event stream is the *single* source of truth for query accounting:
:class:`~repro.relational.database.TracedQueryCounter` and
:func:`repro.evaluation.counters.cost_report` are views over it — there
is no second set of hand-maintained counters to drift out of sync.

Timestamps come from an injectable monotonic clock (default
:func:`time.perf_counter`), so tests can drive the tracer with a fake
clock and assert exact durations.

The tracer can additionally stream both streams *live*: attaching a
:class:`~repro.obs.live.LiveBus` (:meth:`Tracer.live`) publishes one
``repro/live@1`` record per span open, span close and primitive event,
plus :meth:`progress` ticks, into the bus history, which readers page
by ``seq``.  Without a bus every hook is a single ``is None`` test, so
the unwatched pipeline pays nothing (the S13 benchmark enforces it).
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
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
    backend answered from a cache.
    """

    span_id: Optional[int]
    primitive: str
    backend: str
    relations: Tuple[str, ...]
    attributes: Tuple[Tuple[str, ...], ...]
    start: float
    duration: float
    cache_hit: bool
    rows_touched: int

    def __repr__(self) -> str:
        rels = ",".join(self.relations)
        hit = "hit" if self.cache_hit else "miss"
        return f"PrimitiveEvent({self.primitive} {rels} {hit})"


class Tracer:
    """Collects the span and event streams of one (or more) runs.

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
        #: completed and open spans, ordered by start time
        self.spans: List[SpanRecord] = []
        #: primitive events, ordered by occurrence
        self.events: List[PrimitiveEvent] = []
        #: the live-telemetry bus; None until :meth:`live` attaches one, so
        #: every publishing hook below is a single attribute test
        self._live: Optional["LiveBus"] = None
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
        self.spans.append(record)
        self._stack.append(record)
        if self._live is not None:
            self._live.span_opened(record)
        return record

    def end_span(self, record: SpanRecord) -> SpanRecord:
        """Close *record* (and any unclosed children left on the stack).

        Closing a record that is *not* on the stack — already closed, or
        never started on this tracer — warns and closes only that
        record: it must not tear down every open span of the run.
        """
        if not any(top is record for top in self._stack):
            if record.end is None:
                record.end = self.now()
                if self._live is not None:
                    self._live.span_closed(record)
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
            top.end = self.now()
            if current is not None:
                peak = self._mem_peaks.pop(top.span_id, current)
                top.attributes["mem_peak_kb"] = round(peak / 1024.0, 1)
                top.attributes["mem_current_kb"] = round(current / 1024.0, 1)
            if self._live is not None:
                self._live.span_closed(top)
            if top is record:
                break
        return record

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

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def record_event(
        self,
        primitive: str,
        backend: str,
        relations: Tuple[str, ...],
        attributes: Tuple[Tuple[str, ...], ...],
        start: float,
        duration: float,
        cache_hit: bool,
        rows_touched: int,
    ) -> PrimitiveEvent:
        """Append one primitive event, attributed to the open span."""
        event = PrimitiveEvent(
            span_id=self.current_span_id(),
            primitive=primitive,
            backend=backend,
            relations=tuple(relations),
            attributes=tuple(tuple(a) for a in attributes),
            start=start,
            duration=duration,
            cache_hit=cache_hit,
            rows_touched=rows_touched,
        )
        self.events.append(event)
        if self._live is not None:
            self._live.publish(
                "primitive",
                span=event.span_id,
                primitive=event.primitive,
                backend=event.backend,
                relations=list(event.relations),
                duration_ms=round(event.duration * 1000.0, 6),
                cache_hit=event.cache_hit,
                rows_touched=event.rows_touched,
            )
        return event

    # ------------------------------------------------------------------
    # live telemetry
    # ------------------------------------------------------------------
    def live(self) -> "LiveBus":
        """The tracer's live bus, attaching one on first use.

        Attaching mid-run immediately publishes a ``span-open`` record
        (flagged ``snapshot``) for every span currently open, so the
        bus history starts from a consistent view of the run.
        """
        if self._live is None:
            from repro.obs.live import LiveBus

            bus = LiveBus(clock=self._clock)
            for record in self._stack:
                bus.span_opened(record, snapshot=True)
            self._live = bus
        return self._live

    @property
    def live_bus(self) -> Optional["LiveBus"]:
        """The attached bus, or None when none was ever attached."""
        return self._live

    def progress(
        self,
        message: str,
        current: Optional[int] = None,
        total: Optional[int] = None,
        **attributes: Any,
    ) -> None:
        """Publish one ``progress`` tick under the open span.

        A no-op (one attribute test) when no bus was ever attached —
        instrumented loops can call it unconditionally.  The record
        carries the innermost open span id and the innermost enclosing
        *phase* name, so consumers can render per-phase progress without
        reconstructing the span tree.
        """
        if self._live is None:
            return
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
        self._live.publish("progress", **record)

    def current_phase(self) -> Optional[str]:
        """The innermost open span of kind ``phase``, or None."""
        for record in reversed(self._stack):
            if record.kind == "phase":
                return record.name
        return None

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop both streams (open spans included)."""
        self.spans.clear()
        self.events.clear()
        self._stack.clear()
        self._mem_peaks.clear()
        self._next_id = 1

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self.spans)}, events={len(self.events)})"
