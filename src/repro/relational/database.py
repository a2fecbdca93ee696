"""The schema and extension ``(R, E)`` of the paper's database triple.

A :class:`Database` bundles the schema ``R`` and the extension ``E``
(held by a pluggable :class:`~repro.backends.base.ExtensionBackend`).
The triple's dependency set ``Δ = F ∪ IND`` is what the method finds;
it lives in the method's results, not here.  Every extension
access made through the database flows through an
:class:`~repro.obs.instrument.InstrumentedBackend`, which records one
:class:`~repro.obs.tracer.PrimitiveEvent` (wall time, cache hit/miss,
rows touched) on the database's :class:`~repro.obs.tracer.Tracer`; the
:class:`TracedQueryCounter` the benchmarks read is a *view* over that
event stream, so the query accounting (the paper's efficiency argument
for query-guided discovery) and the exported traces can never disagree.
Where the answer comes from — the in-memory engine or pushed-down SQL
on a live SQLite database — is the backend's business, never the
method's.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Iterable, Iterator, List, Mapping, Optional, Sequence, Union,
)

from repro.exceptions import ArityError
from repro.obs.instrument import InstrumentedBackend
from repro.obs.tracer import Tracer
from repro.relational.catalog import Catalog
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.table import Scan, Table

if TYPE_CHECKING:  # pragma: no cover
    from repro.backends.base import ExtensionBackend


class QueryCounter:
    """Instrumentation: how often the extension was consulted.

    The standalone form holds plain assignable counts (handy for tests
    and for assembling a :class:`~repro.evaluation.counters.CostReport`
    from an aggregate); every :class:`Database` carries the
    :class:`TracedQueryCounter` subclass, whose counts are computed from
    the tracer's event stream instead of maintained by hand.
    """

    def __init__(
        self,
        count_distinct: int = 0,
        join_count: int = 0,
        fd_checks: int = 0,
        inclusion_checks: int = 0,
    ) -> None:
        self.count_distinct = count_distinct
        self.join_count = join_count
        self.fd_checks = fd_checks
        self.inclusion_checks = inclusion_checks

    def total(self) -> int:
        """All extension queries, across the four primitives."""
        return (
            self.count_distinct
            + self.join_count
            + self.fd_checks
            + self.inclusion_checks
        )

    def reset(self) -> None:
        """Zero every count."""
        self.count_distinct = 0
        self.join_count = 0
        self.fd_checks = 0
        self.inclusion_checks = 0

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(count_distinct={self.count_distinct}, "
            f"join_count={self.join_count}, fd_checks={self.fd_checks}, "
            f"inclusion_checks={self.inclusion_checks})"
        )


class TracedQueryCounter(QueryCounter):
    """A live :class:`QueryCounter` view over a tracer's event stream.

    No second bookkeeping: each count is the number of matching
    :class:`~repro.obs.tracer.PrimitiveEvent` records since the last
    :meth:`reset` (which just moves a watermark — the trace itself is
    never truncated).
    """

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._mark = 0

    def _window(self):
        return self._tracer.events[self._mark:]

    def _count(self, primitive: str) -> int:
        return sum(1 for e in self._window() if e.primitive == primitive)

    @property
    def count_distinct(self) -> int:
        """``||r[X]||`` probes since the watermark."""
        return self._count("count_distinct")

    @property
    def join_count(self) -> int:
        """Equi-join cardinality queries since the watermark."""
        return self._count("join_count")

    @property
    def fd_checks(self) -> int:
        """FD satisfaction checks since the watermark."""
        return self._count("fd_holds")

    @property
    def inclusion_checks(self) -> int:
        """Inclusion checks since the watermark."""
        return self._count("inclusion_holds")

    def total(self) -> int:
        """All primitive events since the watermark."""
        return len(self._window())

    def reset(self) -> None:
        """Move the watermark past every event recorded so far."""
        self._mark = len(self._tracer.events)


class Database:
    """The relational database ``(R, E)`` the method operates on."""

    def __init__(
        self,
        schema: Optional[DatabaseSchema] = None,
        backend: Optional["ExtensionBackend"] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if backend is None:
            from repro.backends.memory import MemoryBackend

            backend = MemoryBackend()
        self.schema = schema or DatabaseSchema()
        self.backend = backend
        self.backend.attach(self.schema)
        self.tracer = tracer if tracer is not None else Tracer()
        self._instrumented = InstrumentedBackend(backend, self.tracer)
        self.counter: QueryCounter = TracedQueryCounter(self.tracer)
        self.catalog = Catalog(self.schema)

    # ------------------------------------------------------------------
    # schema / table management
    # ------------------------------------------------------------------
    def create_relation(self, relation: RelationSchema) -> Table:
        """Add a relation to ``R`` with an empty extension."""
        self.schema.add(relation)
        return self.backend.create_relation(relation)

    def drop_relation(self, name: str) -> None:
        # backend first: it validates the name against the shared schema
        self.backend.drop_relation(name)
        self.schema.remove(name)

    def replace_relation(self, relation: RelationSchema) -> None:
        """Swap a relation's schema, projecting its extension (Restruct)."""
        self.schema.replace(relation)
        self.backend.replace_relation(relation)

    def table(self, name: str) -> Table:
        return self.backend.table(name)

    def scan(self, relation: str, attrs: Sequence[str]) -> Scan:
        """One uncounted pass over *relation*, carrying at least *attrs*.

        Not one of the paper's counting primitives: RHS evidence, the
        NEI fill and Restruct's projections read the extension through
        it, and no :class:`Table` mirror is built on the way.
        """
        return self.backend.scan(relation, tuple(attrs))

    def insert(self, relation: str, values: Union[Sequence[Any], Mapping[str, Any]]) -> None:
        self.backend.insert(relation, values)

    def insert_many(self, relation: str, rows: Iterable[Union[Sequence[Any], Mapping[str, Any]]]) -> None:
        self.backend.insert_many(relation, rows)

    def tables(self) -> Iterator[Table]:
        for name in self.schema.relation_names:
            yield self.backend.table(name)

    def validate(self) -> None:
        """Check every declared constraint of every table."""
        for t in self.tables():
            t.validate()

    def violations(self) -> List[str]:
        out: List[str] = []
        for t in self.tables():
            out.extend(t.violations())
        return out

    # ------------------------------------------------------------------
    # the paper's query primitives (instrumented)
    # ------------------------------------------------------------------
    def count_distinct(self, relation: str, attrs: Sequence[str]) -> int:
        """``||r[X]||`` — select count distinct X from R."""
        return self._instrumented.count_distinct(relation, tuple(attrs))

    def join_count(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> int:
        """``||r_k[A_k] ⋈ r_l[A_l]||``."""
        if len(left_attrs) != len(right_attrs):
            raise ArityError(
                f"equi-join arity mismatch: {list(left_attrs)} vs "
                f"{list(right_attrs)}"
            )
        return self._instrumented.join_count(
            left, tuple(left_attrs), right, tuple(right_attrs)
        )

    def fd_holds(self, relation: str, lhs: Sequence[str], rhs: Sequence[str]) -> bool:
        """Does ``lhs -> rhs`` hold in the extension of *relation*?"""
        return self._instrumented.fd_holds(relation, tuple(lhs), tuple(rhs))

    def inclusion_holds(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> bool:
        """Does ``R_left[A] ≪ R_right[B]`` hold in the extension?"""
        if len(left_attrs) != len(right_attrs):
            raise ArityError(
                f"inclusion arity mismatch: {list(left_attrs)} vs "
                f"{list(right_attrs)}"
            )
        return self._instrumented.inclusion_holds(
            left, tuple(left_attrs), right, tuple(right_attrs)
        )

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def copy(
        self,
        backend: Optional["ExtensionBackend"] = None,
        tracer: Optional[Tracer] = None,
    ) -> "Database":
        """Copy of schema + extension.

        Restruct mutates the database it is given; callers that want to
        keep the original (e.g. to diff before/after) copy it first.
        Without an explicit *backend* the copy is a same-kind copy made
        by the backend's ``clone`` hook: memory stays memory, sharing
        the immutable, already-validated value tuples under fresh rows
        (no deep copy, no re-validation), and SQLite byte-copies a store
        it built itself into a private in-memory SQLite database, so a
        pushdown pipeline run restructures inside the engine.  A backend
        without the hook, or whose hook declines (returns None), gets a
        fresh sibling (``spawn``) filled through the validating insert
        path.  Passing *backend* converts between backends through that
        same insert path — ``db.copy(backend=MemoryBackend())``
        materializes a SQLite extension in memory.  Either way the
        copy's caches start cold.  The copy records on its own fresh
        tracer unless *tracer* hands it a shared one (the pipeline does,
        so phase spans and primitive events land in one trace).
        """
        schema = self.schema.copy()
        if backend is None:
            clone_extension = getattr(self.backend, "clone", None)
            twin = clone_extension(schema) if clone_extension else None
            if twin is not None:
                return Database(schema, backend=twin, tracer=tracer)
        clone = Database(
            schema, backend=backend or self.backend.spawn(), tracer=tracer
        )
        for name in self.schema.relation_names:
            clone.insert_many(name, self.backend.rows(name))
        return clone

    def close(self) -> None:
        """Release backend resources (SQLite connections, caches)."""
        self.backend.close()

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{name}:{self.backend.row_count(name)}"
            for name in self.schema.relation_names
        )
        return f"Database({sizes})"
