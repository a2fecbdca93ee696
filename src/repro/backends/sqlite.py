"""The SQLite extension backend: the paper's primitives as pushed-down SQL.

The method was designed to interrogate a *live DBMS* — ``||r[X]||`` is
literally ``select count distinct X from R`` (§2).  This backend restores
that reading: extensions live in a SQLite database (a file or
``:memory:``) and each instrumented primitive compiles to one SQL
statement executed by the engine:

- ``count_distinct`` →
  ``SELECT COUNT(*) FROM (SELECT DISTINCT X FROM R WHERE X IS NOT NULL)``;
- ``join_count`` → the cardinality of
  ``SELECT A_k FROM R_k ... INTERSECT SELECT A_l FROM R_l ...``;
- ``fd_holds`` → ``GROUP BY lhs HAVING COUNT(DISTINCT rhs') > 1`` probed
  with ``EXISTS`` (``rhs'`` is a ``QUOTE(...)`` encoding that keeps NULL
  as one marked value, matching the engine's FD convention);
- ``inclusion_holds`` → emptiness of ``lhs-projection EXCEPT
  rhs-projection``.

Compiled statements are cached per relation and invalidated on any
schema mutation; query *results* are additionally memoized under each
relation's :meth:`~SQLiteBackend.write_token`, which every write moves,
raw SQL on the connection included, mirroring the in-memory backend's
distinct-value cache.  The method's row-reading
steps (RHS evidence, the NEI fill, Restruct's projections) stream
projected tuples through :meth:`SQLiteBackend.scan`, one cursor each.
Row-level consumers that walk or mutate whole tuples (the SQL script
loader, CSV import, corruption) hydrate a lazy, write-through :class:`Table`
mirror instead.  The four counting primitives touch neither and scale
with the engine, not with Python.

Storage note: backend-created tables declare column types but *no*
``UNIQUE``/``NOT NULL`` constraints — the reproduction must be able to
hold the corrupted extensions the paper reasons about.  Declared
constraints live in the :class:`RelationSchema` (and, for ``.db`` files
written by :func:`repro.storage.sqlite_io.save_sqlite`, in SQLite's own
data dictionary, where :func:`repro.backends.introspect.open_sqlite`
reads them back).
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import UnknownRelationError
from repro.relational.domain import BOOLEAN, DataType, is_null, NULL
from repro.relational.schema import DatabaseSchema, RelationSchema, tuple_getter
from repro.relational.table import Row, Scan, Table, bind_rows, order_values
from repro.backends.base import RowValues

#: repro domain name → SQLite declared column type
_SQL_TYPES = {
    "INTEGER": "INTEGER",
    "REAL": "REAL",
    "TEXT": "TEXT",
    "DATE": "DATE",
    "BOOLEAN": "BOOLEAN",
}

#: per repro domain, a SQL test (over column ``{c}``) that a stored value
#: already is what :func:`_decode` would make of it, bar None for NULL:
#: the one storage class the domain keeps as-is, ISO-shaped text for
#: DATE, 0/1 for BOOLEAN (which the decode still turns into ``bool``).
#: REAL admits ``real`` only: a NUMERIC foreign column stores whole
#: numbers as ``integer``, and validation widens those to ``float``.
#: A same-kind copy byte-copies a store only if every relation passes
#: it, and a scan passes the cursor's tuples through only then.
_STORED_AS_IS = {
    "INTEGER": "(typeof({c}) = 'integer' OR {c} IS NULL)",
    "REAL": "(typeof({c}) = 'real' OR {c} IS NULL)",
    "TEXT": "(typeof({c}) = 'text' OR {c} IS NULL)",
    "DATE": (
        "(typeof({c}) = 'text' AND {c} GLOB "
        "'[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]' OR {c} IS NULL)"
    ),
    "BOOLEAN": "(typeof({c}) = 'integer' AND {c} IN (0, 1) OR {c} IS NULL)",
}

#: the one decode of a stored BOOLEAN: 0 and 1, nothing else
_BOOLEANS = {0: False, 1: True}

#: separator for multi-column FD images built from QUOTE() fragments;
#: the ASCII unit separator cannot collide with QUOTE output
_SEP = "char(31)"


def quote_identifier(name: str) -> str:
    """Quote *name* for SQLite (paper names carry hyphens: ``zip-code``)."""
    return '"' + name.replace('"', '""') + '"'


class _SQLiteTable(Table):
    """A hydrated mirror of one SQLite relation; mutations write through.

    Holding the rows in an ordinary :class:`Table` keeps every existing
    row-level consumer working; overriding the mutators keeps the
    SQLite store authoritative.  ``_backend`` is None while hydrating
    (and after the relation is dropped or replaced), which turns the
    overrides back into plain in-memory operations.
    """

    def __init__(self, schema: RelationSchema) -> None:
        self._backend: Optional["SQLiteBackend"] = None
        super().__init__(schema)

    def insert(self, values: RowValues) -> Row:
        row = super().insert(values)
        if self._backend is not None:
            self._backend._write_rows(self.name, [row.values])
        return row

    def insert_many(self, rows: Iterable[RowValues]) -> None:
        """Append many tuples; one ``executemany`` writes them through."""
        backend, self._backend = self._backend, None
        start = len(self)
        try:
            super().insert_many(rows)
        finally:
            self._backend = backend
            if backend is not None and len(self) > start:
                backend._write_rows(
                    self.name, [r.values for r in self._rows[start:]]
                )

    def replace_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        super().replace_rows(rows)
        if self._backend is not None:
            self._backend._rewrite(self.name, [r.values for r in self])

    def delete_where(self, predicate) -> int:
        removed = super().delete_where(predicate)
        if removed and self._backend is not None:
            self._backend._rewrite(self.name, [r.values for r in self])
        return removed


def _decode(dtype: DataType) -> Callable[[Any], Any]:
    """Stored value → what :class:`Row` stores for *dtype*, or TypingError.

    None becomes NULL and a BOOLEAN ``0``/``1`` becomes ``bool``; then
    the domain's own ``coerce`` validates, so a ``2`` in a BOOLEAN
    column or ``'x'`` in an INTEGER column raises here exactly as a
    validating insert would.
    """
    coerce = dtype.coerce
    if dtype == BOOLEAN:
        return lambda v: coerce(_BOOLEANS.get(v, v) if type(v) is int else v)
    return coerce


def _denull(raw: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """An as-is cursor tuple, rebuilt only if it holds a None."""
    if None not in raw:
        return raw
    return tuple([NULL if v is None else v for v in raw])


def _to_sql(values: Sequence[Any]) -> List[Any]:
    return [None if is_null(v) else v for v in values]


def _stored_as_is(conn: sqlite3.Connection, relation: RelationSchema) -> bool:
    """Does every stored value of *relation* pass :data:`_STORED_AS_IS`?"""
    as_is = " AND ".join(
        _STORED_AS_IS[a.dtype.name].format(c=quote_identifier(a.name))
        for a in relation.attributes
    )
    (mixed,) = conn.execute(
        f"SELECT EXISTS(SELECT 1 FROM main.{quote_identifier(relation.name)} "
        f"WHERE NOT ({as_is}))"
    ).fetchone()
    return not mixed


def _insert(
    conn: sqlite3.Connection, target: str, rows: Sequence[Sequence[Any]]
) -> None:
    """One ``executemany`` of already-encoded *rows* into *target*."""
    if rows:
        marks = ", ".join("?" for _ in rows[0])
        conn.executemany(f"INSERT INTO {target} VALUES ({marks})", rows)


class SQLiteBackend:
    """Extension storage and query pushdown on a SQLite connection."""

    kind = "sqlite"

    def __init__(
        self,
        path: str = ":memory:",
        connection: Optional[sqlite3.Connection] = None,
    ) -> None:
        if connection is not None:
            self._conn = connection
            self._owns_connection = False
        else:
            self._conn = sqlite3.connect(path, isolation_level=None)
            self._owns_connection = True
        self._schema: DatabaseSchema = DatabaseSchema()
        #: per-relation write counter; every mutation bumps it, and it
        #: never resets — a dropped-and-recreated relation continues the
        #: count, so memoized results can never alias across lifetimes
        self._versions: Dict[str, int] = {}
        #: the connection's row changes and ``schema_version`` moves
        #: made by writes through this backend; any beyond them were
        #: made by raw SQL
        self._own_changes = 0
        self._own_schema_changes = 0
        #: compiled SQL text per (primitive, relations, attrs)
        self._statements: Dict[tuple, str] = {}
        #: memoized primitive results, guarded by the write tokens of
        #: every relation the statement reads
        self._results: Dict[tuple, tuple] = {}
        #: lazily hydrated write-through mirrors for row-level access
        self._mirrors: Dict[str, _SQLiteTable] = {}
        #: write-token-guarded COUNT(*) memo, so the observability probe
        #: does not issue one extra engine query per primitive call
        self._rowcounts: Dict[str, Tuple[tuple, int]] = {}
        #: ``relation -> (write token, passes _STORED_AS_IS?)``
        self._as_is_memo: Dict[str, Tuple[tuple, bool]] = {}
        #: :func:`repro.service.jobs.database_fingerprint`'s memo,
        #: ``relation -> (write token, digest)``; the backend only holds it
        self.fingerprint_memo: Dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, schema: DatabaseSchema) -> None:
        """Bind to *schema*; create any table the store does not hold yet."""
        self._schema = schema
        existing = {
            name
            for (name,) in self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        for relation in schema:
            if relation.name not in existing:
                self._conn.execute(self._create_table_sql(relation))
            self._versions.setdefault(relation.name, 0)
        self._commit()

    def spawn(self) -> "SQLiteBackend":
        """A fresh backend on a private in-memory SQLite database."""
        return SQLiteBackend()

    def clone(self, schema: DatabaseSchema) -> Optional["SQLiteBackend"]:
        """A byte copy of the store in a :meth:`spawn`-ed sibling, or None.

        ``Connection.backup`` copies the store inside the engine when it
        is exactly what the validating copy would build: its
        ``sqlite_master`` holds the relations of *schema* (a copy of the
        attached one) under the DDL :meth:`attach` emits and nothing
        else, and every stored value passes :data:`_STORED_AS_IS` (one
        SQL scan per relation).  Any other store — a foreign ``.db``
        with its own constraints, indexes or tables, or one holding
        values that validation would reject or normalize — returns
        None, and :meth:`Database.copy` takes the validating path.
        """
        stored = self._conn.execute(
            "SELECT type, name, tbl_name, sql FROM main.sqlite_master"
        ).fetchall()
        wanted = [
            ("table", r.name, r.name, self._create_table_sql(r)) for r in schema
        ]
        if stored != wanted or not all(self._as_is(r) for r in schema):
            return None
        twin = self.spawn()
        self._conn.backup(twin._conn)
        # the twin holds the very bytes that just passed, so it inherits
        # the verdicts instead of re-running the typing scans
        twin.attach(schema)
        for relation in schema:
            twin._as_is_memo[relation.name] = (
                twin.write_token(relation.name), True,
            )
        return twin

    def close(self) -> None:
        """Drop caches and close the connection if this backend owns it."""
        self._mirrors.clear()
        self._statements.clear()
        self._results.clear()
        self._rowcounts.clear()
        self._as_is_memo.clear()
        self.fingerprint_memo.clear()
        if self._owns_connection:
            self._conn.close()

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying SQLite connection (read-only introspection)."""
        return self._conn

    # ------------------------------------------------------------------
    # relation lifecycle
    # ------------------------------------------------------------------
    def create_relation(self, relation: RelationSchema) -> Table:
        """CREATE TABLE and return the (empty) write-through mirror."""
        self._invalidate(relation.name)
        with self._writing(relation.name):
            self._conn.execute(self._create_table_sql(relation))
        return self._mirror(relation, [])

    def drop_relation(self, name: str) -> None:
        """DROP TABLE and purge every cache entry about the relation."""
        self._require(name)
        self._invalidate(name)
        with self._writing(name):
            self._conn.execute(f"DROP TABLE {quote_identifier(name)}")

    def replace_relation(self, relation: RelationSchema) -> None:
        """Project the stored extension onto a modified schema, in SQL.

        ``CREATE tmp AS projection; DROP old; RENAME tmp`` — duplicates
        are kept, matching :meth:`Table.with_schema`.
        """
        self._require(relation.name)
        self._invalidate(relation.name)
        name = quote_identifier(relation.name)
        tmp = quote_identifier("__repro_restruct__")
        cols = ", ".join(quote_identifier(a) for a in relation.attribute_names)
        with self._writing(relation.name):
            self._conn.execute(f"DROP TABLE IF EXISTS {tmp}")
            self._conn.execute(
                self._create_table_sql(relation, table_name="__repro_restruct__")
            )
            self._conn.execute(f"INSERT INTO {tmp} SELECT {cols} FROM {name}")
            self._conn.execute(f"DROP TABLE {name}")
            self._conn.execute(f"ALTER TABLE {tmp} RENAME TO {name}")

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def table(self, name: str) -> Table:
        """The write-through mirror of one relation (hydrated lazily)."""
        mirror = self._mirrors.get(name)
        if mirror is None:
            relation = self._require(name)
            mirror = self._mirror(
                relation, self._stream(relation, relation.attribute_names)
            )
        return mirror

    def scan(self, relation: str, attrs: Sequence[str]) -> Scan:
        """One ``SELECT attrs FROM r ORDER BY rowid`` cursor, decoded.

        No mirror is built, and a hydrated one is not read: the store is
        authoritative, raw SQL writes included.
        """
        rel = self._require(relation)
        attrs = tuple(attrs)
        for a in attrs:
            rel.position(a)  # raises UnknownAttributeError
        return Scan(rel, attrs, self._stream(rel, attrs))

    def insert(self, relation: str, values: RowValues) -> None:
        """Append one tuple; typing is validated before the engine sees it."""
        mirror = self._mirrors.get(relation)
        if mirror is not None:
            mirror.insert(values)
            return
        rel = self._require(relation)
        row = Row(rel, order_values(rel, values))
        self._write_rows(relation, [row.values])

    def insert_many(self, relation: str, rows: Iterable[RowValues]) -> None:
        """Bulk append through one ``executemany``."""
        mirror = self._mirrors.get(relation)
        if mirror is not None:
            mirror.insert_many(rows)
            return
        rel = self._require(relation)
        self._write_rows(
            relation, [Row(rel, order_values(rel, r)).values for r in rows]
        )

    def write_token(self, relation: str) -> Tuple[int, int, int, int]:
        """A token every write to the store changes.

        The relation's write counter covers writes through this
        backend.  The connection's ``total_changes`` and ``PRAGMA
        schema_version`` beyond the backend's own cover raw DML and DDL
        on this connection, and ``PRAGMA data_version`` covers commits
        by any other connection to the same file.  A write through the
        backend, DDL included, moves only its relation's token.
        """
        self._require(relation)
        conn = self._conn
        (data_version,) = conn.execute("PRAGMA data_version").fetchone()
        return (
            self._versions.get(relation, 0),
            conn.total_changes - self._own_changes,
            self._schema_version() - self._own_schema_changes,
            data_version,
        )

    def rows(self, relation: str) -> Iterator[Tuple[Any, ...]]:
        """Scan the stored extension in insertion (rowid) order.

        Decoded as the mirror is, and read from the store even when a
        mirror is hydrated.
        """
        rel = self._require(relation)
        yield from self._stream(rel, rel.attribute_names)

    def row_count(self, relation: str) -> int:
        """``SELECT COUNT(*)``, read from the store."""
        self._require(relation)
        sql = f"SELECT COUNT(*) FROM {quote_identifier(relation)}"
        return int(self._conn.execute(sql).fetchone()[0])

    # ------------------------------------------------------------------
    # the paper's query primitives, pushed down
    # ------------------------------------------------------------------
    def count_distinct(self, relation: str, attrs: Sequence[str]) -> int:
        """``SELECT COUNT(*) FROM (SELECT DISTINCT X ... WHERE X NOT NULL)``."""
        attrs = tuple(attrs)
        key = ("count_distinct", relation, attrs)
        return int(self._memoized(key, (relation,), self._count_distinct_sql))

    def join_count(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> int:
        """``||r_k[A_k] ⋈ r_l[A_l]||`` via INTERSECT of the projections."""
        key = ("join_count", left, tuple(left_attrs), right, tuple(right_attrs))
        return int(self._memoized(key, (left, right), self._join_count_sql))

    def fd_holds(self, relation: str, lhs: Sequence[str], rhs: Sequence[str]) -> bool:
        """``GROUP BY lhs HAVING COUNT(DISTINCT rhs') > 1`` finds violations."""
        key = ("fd_holds", relation, tuple(lhs), tuple(rhs))
        return bool(self._memoized(key, (relation,), self._fd_sql))

    def inclusion_holds(
        self,
        left: str,
        left_attrs: Sequence[str],
        right: str,
        right_attrs: Sequence[str],
    ) -> bool:
        """``lhs-projection EXCEPT rhs-projection`` must be empty."""
        key = (
            "inclusion_holds", left, tuple(left_attrs), right, tuple(right_attrs),
        )
        return bool(self._memoized(key, (left, right), self._inclusion_sql))

    # ------------------------------------------------------------------
    # observability hook
    # ------------------------------------------------------------------
    def probe(
        self,
        primitive: str,
        relations: Tuple[str, ...],
        attributes: Tuple[Tuple[str, ...], ...],
    ) -> Tuple[bool, int]:
        """``(cache hit?, rows touched)`` for an imminent primitive call.

        Reconstructs the primitive's memo key and checks the result
        cache under the current write tokens — the same test
        :meth:`_memoized` is about to make.  A miss reaches the engine
        and scans every involved relation once.
        """
        key = self._probe_key(primitive, relations, attributes)
        token = tuple(self.write_token(r) for r in relations)
        hit = self._results.get(key)
        if hit is not None and hit[0] == token:
            return True, 0
        return False, sum(self._cached_row_count(r) for r in relations)

    @staticmethod
    def _probe_key(
        primitive: str,
        relations: Tuple[str, ...],
        attributes: Tuple[Tuple[str, ...], ...],
    ) -> tuple:
        """The memo/statement-cache key of one primitive call."""
        if primitive == "count_distinct":
            return (primitive, relations[0], attributes[0])
        if primitive == "fd_holds":
            return (primitive, relations[0], attributes[0], attributes[1])
        # join_count / inclusion_holds
        return (
            primitive, relations[0], attributes[0],
            relations[1], attributes[1],
        )

    def _cached_row_count(self, relation: str) -> int:
        """``COUNT(*)`` memoized under the relation's write token."""
        token = self.write_token(relation)
        hit = self._rowcounts.get(relation)
        if hit is not None and hit[0] == token:
            return hit[1]
        count = self.row_count(relation)
        self._rowcounts[relation] = (token, count)
        return count

    # ------------------------------------------------------------------
    # statement compilation
    # ------------------------------------------------------------------
    def _projection(
        self, relation: str, attrs: Sequence[str], distinct: bool = False
    ) -> str:
        """``SELECT a, b FROM r WHERE a IS NOT NULL AND b IS NOT NULL``."""
        rel = self._require(relation)
        for a in attrs:
            rel.position(a)  # raises UnknownAttributeError
        head = "SELECT DISTINCT" if distinct else "SELECT"
        cols = ", ".join(quote_identifier(a) for a in attrs)
        not_null = " AND ".join(
            f"{quote_identifier(a)} IS NOT NULL" for a in attrs
        )
        return (
            f"{head} {cols} FROM {quote_identifier(relation)} WHERE {not_null}"
        )

    def _count_distinct_sql(self, key: tuple) -> str:
        _, relation, attrs = key
        inner = self._projection(relation, attrs, distinct=True)
        return f"SELECT COUNT(*) FROM ({inner})"

    def _join_count_sql(self, key: tuple) -> str:
        _, left, left_attrs, right, right_attrs = key
        return (
            "SELECT COUNT(*) FROM ("
            + self._projection(left, left_attrs)
            + " INTERSECT "
            + self._projection(right, right_attrs)
            + ")"
        )

    def _fd_sql(self, key: tuple) -> str:
        _, relation, lhs, rhs = key
        rel = self._require(relation)
        for a in (*lhs, *rhs):
            rel.position(a)
        lhs_cols = ", ".join(quote_identifier(a) for a in lhs)
        lhs_not_null = " AND ".join(
            f"{quote_identifier(a)} IS NOT NULL" for a in lhs
        )
        # QUOTE() keeps a NULL image as the one marked value 'NULL', so
        # wholly-missing optional attributes agree with each other —
        # exactly the functional_maps() convention of the memory engine
        image = f" || {_SEP} || ".join(
            f"QUOTE({quote_identifier(a)})" for a in rhs
        )
        return (
            "SELECT NOT EXISTS("
            f"SELECT 1 FROM {quote_identifier(relation)} "
            f"WHERE {lhs_not_null} GROUP BY {lhs_cols} "
            f"HAVING COUNT(DISTINCT {image}) > 1)"
        )

    def _inclusion_sql(self, key: tuple) -> str:
        _, left, left_attrs, right, right_attrs = key
        return (
            "SELECT NOT EXISTS(SELECT 1 FROM ("
            + self._projection(left, left_attrs)
            + " EXCEPT "
            + self._projection(right, right_attrs)
            + "))"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _memoized(self, key: tuple, relations: Tuple[str, ...], build) -> Any:
        """Execute the statement for *key*, reusing text and result caches.

        A result is reused only while every relation it reads keeps its
        :meth:`write_token`, so raw SQL on the connection invalidates it
        as a write through the backend does.
        """
        token = tuple(self.write_token(r) for r in relations)
        hit = self._results.get(key)
        if hit is not None and hit[0] == token:
            return hit[1]
        sql = self._statements.get(key)
        if sql is None:
            sql = build(key)
            self._statements[key] = sql
        value = self._conn.execute(sql).fetchone()[0]
        self._results[key] = (token, value)
        return value

    def _mirror(
        self, relation: RelationSchema, values: Iterable[Tuple[Any, ...]]
    ) -> _SQLiteTable:
        """Register a write-through mirror holding decoded *values*."""
        mirror = _SQLiteTable(relation)
        mirror._rows = bind_rows(relation, values)
        mirror.version = len(mirror._rows)
        mirror._backend = self
        self._mirrors[relation.name] = mirror
        return mirror

    def _stream(
        self, relation: RelationSchema, attrs: Sequence[str]
    ) -> Iterator[Tuple[Any, ...]]:
        """The stored tuples of *attrs*, decoded, in insertion (rowid) order.

        The one read path of stored values: :meth:`rows`, :meth:`scan`
        and mirror hydration all take it.  When the relation passes
        :data:`_STORED_AS_IS` and no column read is BOOLEAN, the
        cursor's tuples go out as they are, a tuple holding a None
        rebuilt with NULL; otherwise every value goes through
        :func:`_decode`.
        """
        name = quote_identifier(relation.name)
        if not attrs:  # one empty tuple per row
            return map(tuple_getter(()), self._conn.execute(f"SELECT NULL FROM {name}"))
        dtypes = [relation.attribute(a).dtype for a in attrs]
        as_is = BOOLEAN not in dtypes and self._as_is(relation)
        cols = ", ".join(quote_identifier(a) for a in attrs)
        sql = f"SELECT {cols} FROM {name}"
        try:
            cursor = self._conn.execute(sql + " ORDER BY rowid")
        except sqlite3.OperationalError:  # WITHOUT ROWID tables
            cursor = self._conn.execute(sql)
        if as_is:
            return map(_denull, cursor)
        decoders = [_decode(d) for d in dtypes]
        return map(
            lambda raw: tuple([f(v) for f, v in zip(decoders, raw)]), cursor
        )

    def _as_is(self, relation: RelationSchema) -> bool:
        """:func:`_stored_as_is`, memoised under the relation's write token."""
        token = self.write_token(relation.name)
        hit = self._as_is_memo.get(relation.name)
        if hit is None or hit[0] != token:
            hit = self._as_is_memo[relation.name] = (
                token, _stored_as_is(self._conn, relation),
            )
        return hit[1]

    def _require(self, name: str) -> RelationSchema:
        """The schema of *name*, or UnknownRelationError."""
        if name not in self._schema:
            raise UnknownRelationError(name)
        return self._schema.relation(name)

    def _create_table_sql(
        self, relation: RelationSchema, table_name: Optional[str] = None
    ) -> str:
        cols = ", ".join(
            f"{quote_identifier(a.name)} {_SQL_TYPES[a.dtype.name]}"
            for a in relation.attributes
        )
        return (
            f"CREATE TABLE {quote_identifier(table_name or relation.name)} "
            f"({cols})"
        )

    def _write_rows(
        self, relation: str, rows: Sequence[Sequence[Any]]
    ) -> None:
        """Append already-validated tuples: one statement, one commit."""
        if not rows:
            return
        with self._writing(relation):
            _insert(self._conn, quote_identifier(relation), [_to_sql(r) for r in rows])

    def _rewrite(self, relation: str, rows: Sequence[Sequence[Any]]) -> None:
        """Replace the whole stored extension (UPDATE/DELETE write-through)."""
        name = quote_identifier(relation)
        with self._writing(relation):
            self._conn.execute(f"DELETE FROM {name}")
            _insert(self._conn, name, [_to_sql(r) for r in rows])

    @contextmanager
    def _writing(self, relation: str) -> Iterator[None]:
        """One write through the backend to *relation*, then commit.

        Bumps the relation's write counter and books the row changes and
        ``schema_version`` moves the write made on the connection as the
        backend's own, so they move only this relation's
        :meth:`write_token`.
        """
        changes, schema_version = self._conn.total_changes, self._schema_version()
        yield
        self._own_changes += self._conn.total_changes - changes
        self._own_schema_changes += self._schema_version() - schema_version
        self._versions[relation] = self._versions.get(relation, 0) + 1
        self._commit()

    def _schema_version(self) -> int:
        return self._conn.execute("PRAGMA schema_version").fetchone()[0]

    def _invalidate(self, relation: str) -> None:
        """Detach the mirror and purge statement/result caches (DDL)."""
        mirror = self._mirrors.pop(relation, None)
        if mirror is not None:
            mirror._backend = None
        self._rowcounts.pop(relation, None)
        self._as_is_memo.pop(relation, None)
        for cache in (self._statements, self._results):
            stale = [k for k in cache if relation in k]
            for k in stale:
                del cache[k]

    def _commit(self) -> None:
        if not self._owns_connection:
            self._conn.commit()
