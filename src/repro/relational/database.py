"""The schema and extension ``(R, E)`` of the paper's database triple.

A :class:`Database` bundles the schema ``R`` and the extension ``E``
(held by a pluggable :class:`~repro.backends.base.ExtensionBackend`).
The triple's dependency set ``Δ = F ∪ IND`` is what the method finds;
it lives in the method's results, not here.  The database's four
counting primitives are the only way the method queries the extension,
and each records its own call: it asks the backend's ``probe`` for the
cache hit and rows touched, times the call on the tracer's clock and
records one ``primitive`` record in the history of the database's
:class:`~repro.obs.tracer.Tracer`.  The :class:`QueryCounter` the
benchmarks read is a *view* over that history, so the query accounting
(the paper's efficiency argument for query-guided discovery) and the
exported traces can never disagree.  Where the answer comes from — the
in-memory engine or pushed-down SQL on a live SQLite database — is the
backend's business, never the method's; the backends never see the
tracer.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Tuple, Union,
)

from repro.exceptions import ArityError
from repro.obs.tracer import Tracer
from repro.relational.catalog import Catalog
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.table import Scan, Table

if TYPE_CHECKING:  # pragma: no cover
    from repro.backends.base import ExtensionBackend


def _attributes(attrs: Sequence[str], query: str) -> Tuple[str, ...]:
    """*attrs* as a tuple; an empty list is an :class:`ArityError`."""
    attrs = tuple(attrs)
    if not attrs:
        raise ArityError(f"{query} over an empty attribute list")
    return attrs


def _paired(
    left_attrs: Sequence[str], right_attrs: Sequence[str], query: str
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Both sides of a two-relation query, checked for equal arity."""
    if len(left_attrs) != len(right_attrs):
        raise ArityError(
            f"{query} arity mismatch: {list(left_attrs)} vs {list(right_attrs)}"
        )
    return _attributes(left_attrs, query), _attributes(right_attrs, query)


class QueryCounter:
    """How often the extension was consulted: a view of a tracer's run.

    No bookkeeping of its own: each count is the number of
    ``primitive`` records of the tracer's bus, read off its fold, minus
    the counts at the last :meth:`reset` (which just moves a watermark —
    the history itself is never truncated).
    """

    def __init__(self, tracer: Tracer) -> None:
        self._bus = tracer.live_bus
        self._mark: Mapping[str, int] = {}

    def _count(self, primitive: str) -> int:
        return self._bus.calls().get(primitive, 0) - self._mark.get(primitive, 0)

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
        """All primitive calls since the watermark."""
        return sum(self._bus.calls().values()) - sum(self._mark.values())

    def reset(self) -> None:
        """Move the watermark past every call recorded so far."""
        self._mark = self._bus.calls()

    def __repr__(self) -> str:
        return (
            f"QueryCounter(count_distinct={self.count_distinct}, "
            f"join_count={self.join_count}, fd_checks={self.fd_checks}, "
            f"inclusion_checks={self.inclusion_checks})"
        )


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
        self.counter = QueryCounter(self.tracer)
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
    # the paper's query primitives, each recording its own call
    # ------------------------------------------------------------------
    def count_distinct(self, relation: str, attrs: Sequence[str]) -> int:
        """``||r[X]||`` — select count distinct X from R."""
        attrs = _attributes(attrs, "count distinct")
        return self._recorded("count_distinct", (relation,), (attrs,), relation, attrs)

    def join_count(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> int:
        """``||r_k[A_k] ⋈ r_l[A_l]||``."""
        left_attrs, right_attrs = _paired(left_attrs, right_attrs, "equi-join")
        return self._recorded(
            "join_count", (left, right), (left_attrs, right_attrs),
            left, left_attrs, right, right_attrs,
        )

    def fd_holds(self, relation: str, lhs: Sequence[str], rhs: Sequence[str]) -> bool:
        """Does ``lhs -> rhs`` hold in the extension of *relation*?"""
        lhs = _attributes(lhs, "FD left-hand side")
        rhs = _attributes(rhs, "FD right-hand side")
        return self._recorded("fd_holds", (relation,), (lhs, rhs), relation, lhs, rhs)

    def inclusion_holds(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> bool:
        """Does ``R_left[A] ≪ R_right[B]`` hold in the extension?"""
        left_attrs, right_attrs = _paired(left_attrs, right_attrs, "inclusion")
        return self._recorded(
            "inclusion_holds", (left, right), (left_attrs, right_attrs),
            left, left_attrs, right, right_attrs,
        )

    def _recorded(
        self,
        primitive: str,
        relations: Tuple[str, ...],
        attributes: Tuple[Tuple[str, ...], ...],
        *args: Any,
    ) -> Any:
        """Answer one primitive call on the backend and record it.

        The backend's ``probe`` reports, before the call, whether it
        will be a cache hit and how many stored rows a cold evaluation
        scans; the call is timed on the tracer's clock.  A call that
        raises records nothing.
        """
        backend, tracer = self.backend, self.tracer
        cache_hit, rows_touched = backend.probe(primitive, relations, attributes)
        start = tracer.now()
        value = getattr(backend, primitive)(*args)
        tracer.record_event(
            primitive=primitive,
            backend=backend.kind,
            relations=relations,
            attributes=attributes,
            duration=tracer.now() - start,
            cache_hit=cache_hit,
            rows_touched=rows_touched,
        )
        return value

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
