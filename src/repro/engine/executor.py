"""The batch executor: answer a probe list as few backend passes as possible.

The executor is the runtime half of :mod:`repro.engine`: it takes the
flat probe list a discovery phase submitted, runs it through the
:mod:`~repro.engine.planner`, evaluates the unique probes with the
cheapest strategy the backend supports, and hands back one answer per
*submitted* probe, in submission order:

- **pushdown** — a backend that exposes the optional ``execute_batch``
  hook (:class:`~repro.backends.sqlite.SQLiteBackend`) answers a whole
  chunk of probes in one grouped statement; the executor walks the plan
  group by group so probes sharing a relation land in the same pass;
- **serial** — any other backend is driven one probe at a time, group
  by group, so third-party backends that only implement the four
  primitives keep working unchanged.

The backend's capability selects the strategy; there is no knob.

Whatever the strategy, observability is preserved **per logical probe**:
the executor records one :class:`~repro.obs.tracer.PrimitiveEvent` for
every submitted probe — deduped duplicates appear as zero-cost cache
hits — under an ``engine`` span nested in the calling phase, so
:class:`~repro.relational.database.TracedQueryCounter`, the metrics
exporters and the benchmark-regression gate see exactly the query
stream a serial run produces.  Events are emitted in submission order
after the batch is answered, which keeps traces (and therefore the
differential tests) deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Sequence

from repro.engine.planner import QueryPlan, plan_probes
from repro.engine.probes import Probe
from repro.obs.instrument import telemetry_delta

if TYPE_CHECKING:  # pragma: no cover
    from repro.backends.base import ExtensionBackend
    from repro.relational.database import Database

__all__ = ["EngineStats", "BatchExecutor", "dispatch_probe"]

#: probes per grouped ``execute_batch`` statement; well under SQLite's
#: default 2000-result-column limit while still amortizing round trips
DEFAULT_CHUNK_SIZE = 32


@dataclass
class EngineStats:
    """Cumulative accounting of one executor's batches.

    ``logical_probes`` counts what the discovery phases asked;
    ``backend_calls`` counts what actually reached the backend — the gap
    is the dedupe and grouping the planner bought.  The S7 benchmark and
    the regression gate read these figures.
    """

    batches: int = 0
    logical_probes: int = 0
    unique_probes: int = 0
    groups: int = 0
    backend_calls: int = 0     # physical backend invocations of any kind
    batched_calls: int = 0     # grouped execute_batch statements issued

    @property
    def deduped_probes(self) -> int:
        """Probes answered without their own backend evaluation."""
        return self.logical_probes - self.unique_probes

    def as_dict(self) -> Dict[str, int]:
        """A JSON-ready snapshot (used by benchmarks and span attributes)."""
        return {
            "batches": self.batches,
            "logical_probes": self.logical_probes,
            "unique_probes": self.unique_probes,
            "deduped_probes": self.deduped_probes,
            "groups": self.groups,
            "backend_calls": self.backend_calls,
            "batched_calls": self.batched_calls,
        }

    def __repr__(self) -> str:
        return (
            f"EngineStats({self.logical_probes} logical -> "
            f"{self.unique_probes} unique -> {self.backend_calls} backend calls)"
        )


@dataclass
class _Evaluation:
    """One unique probe's measured evaluation."""

    value: Any = None
    start: float = 0.0
    duration: float = 0.0
    cache_hit: bool = False
    rows_touched: int = 0
    #: storage telemetry deltas (backends with a ``telemetry()`` hook)
    counters: Dict[str, int] = field(default_factory=dict)


class BatchExecutor:
    """Plans and executes probe batches against one database.

    The executor is bound to a :class:`~repro.relational.database.Database`
    and talks to its *raw* backend (not the instrumented wrapper): event
    recording is the executor's own job, one event per logical probe, so
    the query accounting a batched run produces is indistinguishable
    from a serial run's.
    """

    def __init__(self, database: "Database", chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self.database = database
        self.chunk_size = max(1, chunk_size)
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # the public entry point
    # ------------------------------------------------------------------
    def run(self, probes: Sequence[Probe]) -> List[Any]:
        """Answer every probe; results align with *probes* by position."""
        plan = plan_probes(probes)
        if not plan.requests:
            return []
        backend = self.database.backend
        tracer = self.database.tracer

        with tracer.span("engine", kind="engine") as span:
            evaluations = self._execute(backend, plan)
            span.attributes["logical"] = len(plan.requests)
            span.attributes["unique"] = len(plan.unique)
            span.attributes["groups"] = len(plan.groups)

            kind = getattr(backend, "kind", type(backend).__name__)
            emitted: set = set()
            for probe in plan.requests:
                evaluation = evaluations[probe.key]
                first = probe.key not in emitted
                emitted.add(probe.key)
                tracer.record_event(
                    primitive=probe.primitive,
                    backend=kind,
                    relations=probe.relations,
                    attributes=probe.attributes,
                    # a deduped duplicate is a zero-cost cache hit: the
                    # answer was already computed inside this batch
                    start=evaluation.start if first else tracer.now(),
                    duration=evaluation.duration if first else 0.0,
                    cache_hit=evaluation.cache_hit if first else True,
                    rows_touched=evaluation.rows_touched if first else 0,
                    counters=evaluation.counters if first else None,
                )

        self.stats.batches += 1
        self.stats.logical_probes += len(plan.requests)
        self.stats.unique_probes += len(plan.unique)
        self.stats.groups += len(plan.groups)
        return [evaluations[p.key].value for p in plan.requests]

    # ------------------------------------------------------------------
    # strategies
    # ------------------------------------------------------------------
    def _execute(
        self, backend: "ExtensionBackend", plan: QueryPlan
    ) -> Dict[tuple, _Evaluation]:
        evaluations = {p.key: self._profiled(backend, p) for p in plan.unique}
        if callable(getattr(backend, "execute_batch", None)):
            self._execute_pushdown(backend, plan, evaluations)
        else:
            self._execute_serial(backend, plan, evaluations)
        return evaluations

    def _execute_pushdown(
        self,
        backend: "ExtensionBackend",
        plan: QueryPlan,
        evaluations: Dict[tuple, _Evaluation],
    ) -> None:
        """One grouped statement per chunk, walking the plan group-wise."""
        tracer = self.database.tracer
        ordered = [probe for group in plan.groups for probe in group.probes]
        chunks = list(_chunks(ordered, self.chunk_size))
        for index, chunk in enumerate(chunks, start=1):
            start = tracer.now()
            values = backend.execute_batch(chunk)
            duration = tracer.now() - start
            # the engine answered the chunk in one pass; attribute the
            # wall time evenly so per-primitive latencies stay additive
            share = duration / len(chunk)
            for probe, value in zip(chunk, values):
                evaluation = evaluations[probe.key]
                evaluation.value = value
                evaluation.start = start
                evaluation.duration = share
            self.stats.backend_calls += 1
            self.stats.batched_calls += 1
            tracer.progress(
                "pushdown chunk answered", current=index, total=len(chunks),
                probes=len(chunk),
            )

    def _execute_serial(
        self,
        backend: "ExtensionBackend",
        plan: QueryPlan,
        evaluations: Dict[tuple, _Evaluation],
    ) -> None:
        """The universal fallback: one timed primitive call per unique probe."""
        tracer = self.database.tracer
        hook = getattr(backend, "telemetry", None)
        for group in plan.groups:
            for probe in group.probes:
                before = hook() if hook is not None else None
                evaluation = evaluations[probe.key]
                evaluation.start = tracer.now()
                evaluation.value = dispatch_probe(backend, probe)
                evaluation.duration = tracer.now() - evaluation.start
                after = hook() if hook is not None else None
                evaluation.counters = telemetry_delta(before, after) or {}
        self.stats.backend_calls += len(plan.unique)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _profiled(self, backend: "ExtensionBackend", probe: Probe) -> _Evaluation:
        """Seed an evaluation with the backend's observability probe."""
        hook = getattr(backend, "probe", None)
        if hook is None:
            return _Evaluation()
        cache_hit, rows_touched = hook(
            probe.primitive, probe.relations, probe.attributes
        )
        return _Evaluation(cache_hit=cache_hit, rows_touched=rows_touched)


def dispatch_probe(backend: "ExtensionBackend", probe: Probe) -> Any:
    """One probe, one primitive call."""
    if probe.primitive == "count_distinct":
        return backend.count_distinct(probe.relations[0], probe.attributes[0])
    if probe.primitive == "join_count":
        return backend.join_count(
            probe.relations[0], probe.attributes[0],
            probe.relations[1], probe.attributes[1],
        )
    if probe.primitive == "fd_holds":
        return backend.fd_holds(
            probe.relations[0], probe.attributes[0], probe.attributes[1]
        )
    return backend.inclusion_holds(
        probe.relations[0], probe.attributes[0],
        probe.relations[1], probe.attributes[1],
    )


def _chunks(items: List[Probe], size: int):
    for start in range(0, len(items), size):
        yield items[start:start + size]
