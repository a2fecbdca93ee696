"""The paged extension backend: out-of-core primitives on page files.

The third :class:`~repro.backends.base.ExtensionBackend`.  Extensions
live in native page files (:mod:`repro.storage.paged`) — one file per
relation, fixed-size slotted pages in a linked chain — and every page
the four counting primitives touch moves through one bounded
:class:`~repro.storage.paged.buffer.BufferPool`.  A scan pins exactly
one page at a time, so an extension of any size is analyzed with at
most ``pool_pages × page_size`` bytes of resident page data: the pool
is the knob, not the data.

The primitive algebra mirrors the in-memory backend exactly — distinct
non-NULL projections for ``count_distinct`` / ``join_count`` /
``inclusion_holds`` (cached per ``(relation, attrs)`` under a
never-reset per-relation version counter), and a single-pass witness
partition for ``fd_holds`` with the same NULL conventions
(NULL-bearing LHS tuples skipped; NULL on the RHS one marked value) —
so discovery results are bit-identical across backends, which the
differential harness enforces.

Row-level access hydrates a lazy write-through :class:`Table` mirror
(the same escape hatch as the SQLite backend): code that walks or
mutates tuples keeps working unchanged, while the page file stays
authoritative and the primitives never touch the mirror.

:meth:`PagedBackend.telemetry` exposes the pool and file counters
(hits, misses, evictions, write-backs, pages read/written); the
observability layer snapshots it around every primitive call and
attaches the deltas to the ``PrimitiveEvent`` stream, so ``repro
profile`` and ``repro trace diff`` can attribute a regression to pool
thrash.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from typing import Any, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.exceptions import StorageError, UnknownRelationError
from repro.relational.domain import is_null
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.table import Row, Scan, Table, order_values
from repro.backends.base import RowValues
from repro.storage.paged.buffer import BufferPool
from repro.storage.paged.codec import decode_row, encode_row
from repro.storage.paged.file_manager import DEFAULT_PAGE_SIZE, FileManager
from repro.storage.paged.page import Page, PageFullError

__all__ = ["PagedBackend"]

DEFAULT_POOL_PAGES = 64


class _PagedTable(Table):
    """A hydrated mirror of one paged relation; mutations write through.

    Same shape as the SQLite backend's mirror: ``_backend`` is None
    while hydrating (and after the relation is dropped or replaced),
    which turns the overrides back into plain in-memory operations.
    """

    def __init__(self, schema: RelationSchema) -> None:
        self._backend: Optional["PagedBackend"] = None
        super().__init__(schema)

    def insert(self, values: RowValues) -> Row:
        row = super().insert(values)
        if self._backend is not None:
            self._backend._append_values(self.name, row.values)
        return row

    def replace_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        super().replace_rows(rows)
        if self._backend is not None:
            self._backend._rewrite(self.name, [r.values for r in self])

    def delete_where(self, predicate) -> int:
        removed = super().delete_where(predicate)
        if removed and self._backend is not None:
            self._backend._rewrite(self.name, [r.values for r in self])
        return removed


class PagedBackend:
    """Extension storage in page files behind a bounded buffer pool."""

    kind = "paged"

    def __init__(
        self,
        directory: Optional[str] = None,
        pool_pages: int = DEFAULT_POOL_PAGES,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-paged-")
            self._owns_directory = True
            # belt and braces: reclaim the scratch directory even if the
            # caller forgets close()
            self._cleanup = weakref.finalize(
                self, shutil.rmtree, directory, ignore_errors=True
            )
        else:
            self._owns_directory = False
            self._cleanup = None
        self.directory = directory
        self._files = FileManager(directory, page_size)
        self._pool = BufferPool(
            pool_pages, self._files.read_page, self._files.write_page
        )
        self._schema: DatabaseSchema = DatabaseSchema()
        #: schema each relation's records were *written* under — decoding
        #: must not depend on the live DatabaseSchema, which the Database
        #: mutates before replace_relation() runs
        self._stored: Dict[str, RelationSchema] = {}
        #: per-relation write counter; every mutation bumps it, and it
        #: never resets, so cached results cannot alias across lifetimes
        self._versions: Dict[str, int] = {}
        #: distinct-value cache, keyed (relation, attrs), version-guarded
        self._distinct_cache: Dict[tuple, tuple] = {}
        #: :func:`repro.service.jobs.database_fingerprint`'s memo,
        #: ``relation -> (write token, digest)``; the backend only holds it
        self.fingerprint_memo: Dict[str, tuple] = {}
        #: lazily hydrated write-through mirrors for row-level access
        self._mirrors: Dict[str, _PagedTable] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, schema: DatabaseSchema) -> None:
        """Bind to *schema*; create any page file not on disk yet."""
        self._schema = schema
        for relation in schema:
            self._files.open(relation.name, create=True)
            self._stored.setdefault(relation.name, relation)
            self._versions.setdefault(relation.name, 0)

    def spawn(self) -> "PagedBackend":
        """A fresh paged backend on its own scratch directory."""
        return PagedBackend(
            pool_pages=self._pool.capacity, page_size=self._files.page_size
        )

    def close(self) -> None:
        """Flush the pool, sync headers, release files (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._mirrors.clear()
        self._distinct_cache.clear()
        self.fingerprint_memo.clear()
        self._pool.flush_all()
        self._files.close()
        if self._owns_directory and self._cleanup is not None:
            self._cleanup()

    # ------------------------------------------------------------------
    # relation lifecycle
    # ------------------------------------------------------------------
    def create_relation(self, relation: RelationSchema) -> Table:
        """A fresh page file for *relation*; returns its (empty) mirror."""
        self._invalidate(relation.name)
        self._pool.invalidate(relation.name)
        self._files.drop(relation.name)
        self._files.open(relation.name, create=True)
        self._stored[relation.name] = relation
        self._bump(relation.name)
        return self.table(relation.name)

    def drop_relation(self, name: str) -> None:
        """Delete the page file and purge every cache entry about it."""
        self._require(name)
        self._invalidate(name)
        self._pool.invalidate(name)
        self._files.drop(name)
        self._stored.pop(name, None)
        self._bump(name)

    def replace_relation(self, relation: RelationSchema) -> None:
        """Project the stored extension onto a modified schema (Restruct).

        Decodes under the schema the records were written with, projects
        each tuple onto the new attribute list (duplicates kept,
        matching :meth:`Table.with_schema`), and rewrites the chain.
        """
        name = relation.name
        old = self._stored.get(name)
        if old is None:
            raise UnknownRelationError(name)
        positions = [old.position(a) for a in relation.attribute_names]
        projected = [
            tuple(values[p] for p in positions)
            for values in self._scan(name, old)
        ]
        self._invalidate(name)
        self._stored[name] = relation
        self._rewrite(name, projected)

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        """The write-through mirror of one relation (hydrated lazily).

        The mirror holds the whole extension in memory — it is the
        row-level escape hatch, not the analysis path; the counting
        primitives stream pages and never hydrate it.
        """
        mirror = self._mirrors.get(name)
        if mirror is None:
            relation = self._stored_schema(name)
            mirror = _PagedTable(relation)
            for values in self._scan(name, relation):
                mirror.insert(values)
            mirror._backend = self
            self._mirrors[name] = mirror
        return mirror

    def insert(self, relation: str, values: RowValues) -> None:
        """Append one tuple; typing is validated before encoding."""
        mirror = self._mirrors.get(relation)
        if mirror is not None:
            mirror.insert(values)
            return
        rel = self._stored_schema(relation)
        row = Row(rel, order_values(rel, values))
        self._append_values(relation, row.values)

    def insert_many(self, relation: str, rows: Iterable[RowValues]) -> None:
        """Bulk append (one version bump for the whole batch)."""
        mirror = self._mirrors.get(relation)
        if mirror is not None:
            mirror.insert_many(rows)
            return
        rel = self._stored_schema(relation)
        wrote = False
        for values in rows:
            row = Row(rel, order_values(rel, values))
            self._append_encoded(relation, encode_row(row.values))
            wrote = True
        if wrote:
            self._bump(relation)
            self._files.open(relation).sync_header()

    def write_token(self, relation: str) -> int:
        """The relation's write counter: every write, mirror ones too, bumps it."""
        self._require(relation)
        return self._versions.get(relation, 0)

    def rows(self, relation: str) -> Iterator[Tuple[Any, ...]]:
        """Scan the stored extension in insertion (chain) order."""
        mirror = self._mirrors.get(relation)
        if mirror is not None:
            for row in mirror:
                yield row.values
            return
        for values in self._scan(relation, self._stored_schema(relation)):
            yield values

    def scan(self, relation: str, attrs: Sequence[str]) -> Scan:
        """:meth:`rows` as a :class:`Scan` of whole rows (no mirror built)."""
        schema = self._stored_schema(relation)
        for a in attrs:
            schema.position(a)  # raises UnknownAttributeError
        return Scan(schema, schema.attribute_names, self.rows(relation))

    def row_count(self, relation: str) -> int:
        """``|r|`` from the page-file header (no scan)."""
        mirror = self._mirrors.get(relation)
        if mirror is not None:
            return len(mirror)
        self._require(relation)
        return self._files.open(relation).row_count

    # ------------------------------------------------------------------
    # the paper's query primitives, over streaming page scans
    # ------------------------------------------------------------------
    def count_distinct(self, relation: str, attrs: Sequence[str]) -> int:
        """``||r[X]||`` via the cached distinct set."""
        return len(self._distinct(relation, attrs))

    def join_count(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> int:
        """``||r_k[A_k] ⋈ r_l[A_l]||`` as a distinct-set intersection."""
        return len(
            self._distinct(left, left_attrs) & self._distinct(right, right_attrs)
        )

    def fd_holds(self, relation: str, lhs: Sequence[str], rhs: Sequence[str]) -> bool:
        """Single-pass witness partition over the streamed pages.

        Same conventions as :func:`repro.relational.algebra.functional_maps`:
        NULL-bearing LHS tuples are skipped; NULL on the RHS is one
        marked value, so two NULLs agree.
        """
        rel = self._stored_schema(relation)
        lhs_pos = [rel.position(a) for a in lhs]
        rhs_pos = [rel.position(a) for a in rhs]
        witness: dict = {}
        for values in self._scan(relation, rel):
            key = tuple(values[p] for p in lhs_pos)
            if any(is_null(v) for v in key):
                continue
            image = tuple(values[p] for p in rhs_pos)
            if key in witness:
                if witness[key] != image:
                    return False
            else:
                witness[key] = image
        return True

    def inclusion_holds(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> bool:
        """Distinct-set containment test."""
        return self._distinct(left, left_attrs) <= self._distinct(
            right, right_attrs
        )

    # ------------------------------------------------------------------
    # observability hooks
    # ------------------------------------------------------------------
    def probe(
        self,
        primitive: str,
        relations: Tuple[str, ...],
        attributes: Tuple[Tuple[str, ...], ...],
    ) -> Tuple[bool, int]:
        """``(cache hit?, rows touched)`` for an imminent primitive call.

        Same shape as the in-memory backend: ``fd_holds`` always scans;
        the other three are hits exactly when every projection they
        need is in the distinct-value cache, and a cold side costs one
        streamed scan of its chain.
        """
        if primitive == "fd_holds":
            return False, self.row_count(relations[0])
        rows = 0
        for relation, attrs in zip(relations, attributes):
            if not self._distinct_cached(relation, attrs):
                rows += self.row_count(relation)
        return rows == 0, rows

    def telemetry(self) -> Dict[str, int]:
        """Monotonic storage counters for the ``PrimitiveEvent`` stream."""
        counters = self._pool.stats.as_dict()
        counters["pages_read"] = self._files.pages_read
        counters["pages_written"] = self._files.pages_written
        return counters

    @property
    def pool(self) -> BufferPool:
        """The buffer pool (read-only introspection: stats, residency)."""
        return self._pool

    @property
    def files(self) -> FileManager:
        """The file manager (read-only introspection: paths, counters)."""
        return self._files

    # ------------------------------------------------------------------
    # internals: scanning
    # ------------------------------------------------------------------
    def _scan(
        self, relation: str, rel: RelationSchema
    ) -> Iterator[Tuple[Any, ...]]:
        """Stream decoded tuples, pinning one page at a time."""
        arity = len(rel.attributes)
        file = self._files.open(relation)
        page_id = file.first_data
        hops = 0
        while page_id:
            page = self._pool.fetch(relation, page_id)
            try:
                decoded = [decode_row(r, arity) for r in page.records()]
                next_id = page.next_page
            finally:
                self._pool.unpin(relation, page_id)
            for values in decoded:
                yield values
            page_id = next_id
            hops += 1
            if hops > file.page_count:
                raise StorageError(
                    f"{file.path}: data-page chain is cyclic "
                    f"(visited {hops} pages of {file.page_count})"
                )

    def _distinct(self, relation: str, attrs: Sequence[str]) -> frozenset:
        """Cached distinct non-NULL projections (version-guarded)."""
        rel = self._stored_schema(relation)
        key = (relation, tuple(attrs))
        token = self._versions.get(relation, 0)
        cached = self._distinct_cache.get(key)
        if cached is not None and cached[0] == token:
            return cached[1]
        positions = [rel.position(a) for a in attrs]
        out = set()
        for values in self._scan(relation, rel):
            projection = tuple(values[p] for p in positions)
            if any(is_null(v) for v in projection):
                continue
            out.add(projection)
        result = frozenset(out)
        self._distinct_cache[key] = (token, result)
        return result

    def _distinct_cached(self, relation: str, attrs: Sequence[str]) -> bool:
        """Is the distinct set for (relation, attrs) cached and fresh?"""
        cached = self._distinct_cache.get((relation, tuple(attrs)))
        return cached is not None and cached[0] == self._versions.get(relation, 0)

    # ------------------------------------------------------------------
    # internals: writing
    # ------------------------------------------------------------------
    def _append_values(self, relation: str, values: Sequence[Any]) -> None:
        """Write-through append of one already-validated tuple."""
        self._append_encoded(relation, encode_row(values))
        self._bump(relation)
        self._files.open(relation).sync_header()

    def _append_encoded(self, relation: str, record: bytes) -> None:
        """Append one encoded record to the relation's chain tail."""
        file = self._files.open(relation)
        if file.last_data == 0:
            page_id = self._fresh_page(relation, file)
            file.first_data = file.last_data = page_id
        page_id = file.last_data
        page = self._pool.fetch(relation, page_id)
        dirty = False
        try:
            page.append(record)
            dirty = True
        except PageFullError:
            pass
        finally:
            self._pool.unpin(relation, page_id, dirty=dirty)
        if not dirty:
            new_id = self._fresh_page(relation, file)
            tail = self._pool.fetch(relation, page_id)
            try:
                tail.next_page = new_id
            finally:
                self._pool.unpin(relation, page_id, dirty=True)
            file.last_data = new_id
            page = self._pool.fetch(relation, new_id)
            try:
                page.append(record)
            finally:
                self._pool.unpin(relation, new_id, dirty=True)
        file.row_count += 1

    def _fresh_page(self, relation: str, file) -> int:
        """Allocate and zero-initialize one page, bypassing no counters."""
        page_id = file.allocate()
        self._files.write_page(relation, Page.empty(page_id, file.page_size))
        return page_id

    def _rewrite(self, relation: str, rows: Sequence[Sequence[Any]]) -> None:
        """Replace the whole stored extension (write-through / Restruct)."""
        self._pool.invalidate(relation)
        file = self._files.open(relation)
        for page_id in list(file.data_page_ids()):
            file.free(page_id)
        file.first_data = file.last_data = 0
        file.row_count = 0
        for values in rows:
            self._append_encoded(relation, encode_row(values))
        self._bump(relation)
        file.sync_header()

    # ------------------------------------------------------------------
    # internals: bookkeeping
    # ------------------------------------------------------------------
    def _require(self, name: str) -> RelationSchema:
        """The live schema of *name*, or UnknownRelationError."""
        if name not in self._schema:
            raise UnknownRelationError(name)
        return self._schema.relation(name)

    def _stored_schema(self, name: str) -> RelationSchema:
        """The schema the stored records decode under."""
        rel = self._stored.get(name)
        if rel is None:
            self._require(name)
            rel = self._schema.relation(name)
            self._stored[name] = rel
            self._files.open(name, create=True)
        return rel

    def _bump(self, relation: str) -> None:
        self._versions[relation] = self._versions.get(relation, 0) + 1

    def _invalidate(self, relation: str) -> None:
        """Detach the mirror and purge caches (any schema mutation)."""
        mirror = self._mirrors.pop(relation, None)
        if mirror is not None:
            mirror._backend = None
        stale = [k for k in self._distinct_cache if k[0] == relation]
        for k in stale:
            del self._distinct_cache[k]

    def __repr__(self) -> str:
        return (
            f"PagedBackend({self.directory!r}, "
            f"pool={self._pool.capacity}x{self._files.page_size}B)"
        )
