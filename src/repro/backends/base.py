"""The extension-backend protocol.

§2 of the paper phrases every question the method asks the extension as
a query an SQL DBMS answers natively: ``select count distinct X from R``
(``||r[X]||``), equi-join cardinalities, FD satisfaction and inclusion
tests.  :class:`ExtensionBackend` abstracts *where* those questions are
answered — the in-memory engine that ships with the reproduction
(:class:`~repro.backends.memory.MemoryBackend`) or a live DBMS that
executes them as pushed-down SQL
(:class:`~repro.backends.sqlite.SQLiteBackend`).

The :class:`~repro.relational.database.Database` owns the schema ``R``,
the dependency set ``Δ`` and the :class:`QueryCounter`; the backend owns
the extension ``E``.  Every backend must implement

- the four instrumented primitives — ``count_distinct``, ``join_count``,
  ``fd_holds``, ``inclusion_holds`` — with identical semantics (NULLs
  skipped by distinct counts and joins, NULL treated as one marked value
  on FD right-hand sides);
- row access — ``table`` (a live :class:`~repro.relational.table.Table`
  view, for row-level consumers), ``insert``/``insert_many``,
  ``rows``/``row_count``, and ``scan(relation, attrs)``: one uncounted
  pass in ``rows`` order, returned as a
  :class:`~repro.relational.table.Scan` whose tuples carry at least
  *attrs*, without building a ``Table`` view — the read path of the
  method's row-reading steps (RHS evidence, the NEI fill, Restruct's
  projections);
- relation lifecycle — ``create_relation``, ``drop_relation``,
  ``replace_relation`` — each of which must invalidate any derived
  caches for the touched relation;
- the observability hook — a ``kind`` label and ``probe``, which
  reports (without side effects on the answer) whether a primitive call
  would be served from the backend's own cache and how many stored rows
  a cold evaluation would scan.  The
  :class:`~repro.obs.instrument.InstrumentedBackend` wrapper calls it
  before each primitive so exported traces carry cache hit/miss and
  rows-touched figures; the backends themselves never see the tracer.

Two further members are **optional**.  The first serves
:meth:`~repro.relational.database.Database.copy`, which falls back to
``spawn`` plus the validating ``insert_many`` path without it:

- ``clone(schema)`` returns a new backend of the same kind holding a
  copy of the extension under *schema* (a copy of the attached schema),
  with cold caches, without re-validating rows that were validated on
  entry — :class:`~repro.backends.memory.MemoryBackend` re-homes its
  immutable rows, :class:`~repro.backends.sqlite.SQLiteBackend`
  byte-copies a store it built itself.  Returning None declines, and
  the copy takes the validating path.

The second serves :func:`~repro.service.jobs.database_fingerprint`,
which hashes every row cold on each call without it:

- ``write_token(relation)`` returns a hashable token that changes on
  every write to *relation*, through any path the backend can see —
  the memory table's ``(generation, version)``, and on SQLite the
  write counter plus the connection's
  ``total_changes``, ``schema_version`` and ``data_version`` (raw SQL
  on this connection, commits by others).  A backend that has it also
  holds a ``fingerprint_memo`` dict, ``relation -> (write token,
  digest)``, which only the fingerprint reads and writes; ``close``
  clears it, and a clone starts with an empty one.

The contract is executable: ``tests/backends/test_contract.py`` runs the
same assertions over every registered backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Protocol, Sequence, Tuple, Union, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.relational.schema import DatabaseSchema, RelationSchema
    from repro.relational.table import Scan, Table

RowValues = Union[Sequence[Any], Mapping[str, Any]]


@runtime_checkable
class ExtensionBackend(Protocol):
    """Where the extension ``E`` lives and how it is queried.

    Implementations are interchangeable: the reverse-engineering method
    never touches tuples except through this interface, so pointing the
    pipeline at another storage engine is a constructor argument, not a
    refactor.
    """

    #: short label stamped on every exported trace event ("memory", ...)
    kind: str

    # -- lifecycle -----------------------------------------------------
    def attach(self, schema: "DatabaseSchema") -> None:
        """Bind to *schema*, creating storage for any missing relation.

        Called once by :class:`~repro.relational.database.Database` at
        construction.  Relations that already exist in the underlying
        store (e.g. a pre-populated ``.db`` file) are left untouched.
        """

    def spawn(self) -> "ExtensionBackend":
        """A fresh, empty sibling backend of the same kind.

        Used by :meth:`Database.copy` so a pipeline run against a SQLite
        extension restructures a SQLite extension, not an in-memory one.
        """

    def close(self) -> None:
        """Release any underlying resources (connections, caches)."""

    # -- relation lifecycle --------------------------------------------
    def create_relation(self, relation: "RelationSchema") -> "Table":
        """Create empty storage for *relation*; return its table view."""

    def drop_relation(self, name: str) -> None:
        """Drop the relation's storage and every cache entry about it."""

    def replace_relation(self, relation: "RelationSchema") -> None:
        """Swap in a modified schema, projecting the stored extension.

        Returns nothing: the projected relation is not hydrated; a
        caller that needs rows asks :meth:`table` for them.
        """

    # -- row access ----------------------------------------------------
    def table(self, name: str) -> "Table":
        """The live :class:`Table` view of one relation's extension."""

    def insert(self, relation: str, values: RowValues) -> None:
        """Append one typed tuple (positional or by attribute name)."""

    def insert_many(self, relation: str, rows: Iterable[RowValues]) -> None:
        """Bulk append; semantically a loop over :meth:`insert`."""

    def rows(self, relation: str) -> Iterator[Tuple[Any, ...]]:
        """Scan the extension in insertion order as value tuples."""

    def scan(self, relation: str, attrs: Sequence[str]) -> "Scan":
        """One pass in :meth:`rows` order, carrying at least *attrs*.

        No ``Table`` view is built.  The scan's ``layout`` says where
        each attribute sits in a tuple; tuples must already be what
        :class:`~repro.relational.table.Row` stores, so a whole-row
        scan's ``rows`` binds them as rows without touching the store
        again.  Unknown names raise at the call.
        """

    def row_count(self, relation: str) -> int:
        """``|r|`` — the extension's cardinality (duplicates counted)."""

    # -- the paper's instrumented query primitives ---------------------
    def count_distinct(self, relation: str, attrs: Sequence[str]) -> int:
        """``||r[X]||`` — select count distinct X from R (NULLs skipped)."""

    def join_count(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> int:
        """``||r_k[A_k] ⋈ r_l[A_l]||`` — distinct matching combinations."""

    def fd_holds(
        self, relation: str, lhs: Sequence[str], rhs: Sequence[str]
    ) -> bool:
        """Does ``lhs -> rhs`` hold in the stored extension?"""

    def inclusion_holds(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> bool:
        """Does ``R_left[A] ≪ R_right[B]`` hold in the stored extension?"""

    # -- observability hook --------------------------------------------
    def probe(
        self,
        primitive: str,
        relations: Tuple[str, ...],
        attributes: Tuple[Tuple[str, ...], ...],
    ) -> Tuple[bool, int]:
        """``(cache hit?, rows touched)`` for an imminent primitive call.

        *primitive* is one of the four primitive method names;
        *relations*/*attributes* mirror the call's arguments (for
        ``fd_holds`` one relation with the ``(lhs, rhs)`` tuples).  The
        probe must not change what the primitive will answer.  ``rows
        touched`` is the number of stored rows a cold evaluation scans,
        and 0 when the answer will come from a cache.
        """

