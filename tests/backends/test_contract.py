"""The executable backend contract.

Every registered :class:`ExtensionBackend` must answer the paper's four
instrumented primitives — and the row/lifecycle operations around them —
identically on the Figure-1 example: same counts, same NULL handling,
same ``QueryCounter`` bookkeeping, same error surface.  The suite is
parametrized over the backend registry, so a new backend only has to
join ``tests/backends/conftest.py`` to inherit the whole contract.
"""

import math
import sqlite3

import pytest

from repro.backends import ExtensionBackend, MemoryBackend, SQLiteBackend
from repro.exceptions import (
    ArityError,
    TypingError,
    UnknownAttributeError,
    UnknownRelationError,
)
from repro.relational import Database, DatabaseSchema, RelationSchema
from repro.relational.domain import BOOLEAN, DATE, INTEGER, NULL, REAL
from repro.service.jobs import database_fingerprint
from repro.workloads.paper_example import build_paper_database


@pytest.fixture
def db(backend_factory) -> Database:
    return build_paper_database(backend=backend_factory())


#: one write per mutator a copy must keep to its own side
_MUTATIONS = {
    "insert": lambda db: db.insert(
        "Person", [99, "person-99", "rue Zéro", 1, "69100", "Rhone"]
    ),
    "delete_where": lambda db: db.table("Person").delete_where(
        lambda row: row["id"] <= 3
    ),
    "replace_rows": lambda db: db.table("Department").replace_rows(
        list(db.backend.rows("Department"))[:3]
    ),
    "replace_relation": lambda db: db.replace_relation(
        db.schema.relation("Person").without_attributes(["state"])
    ),
}


def _observe(db: Database):
    """Rows, cardinalities, per-attribute distinct counts and fingerprint."""
    names = db.schema.relation_names
    return (
        {n: list(db.backend.rows(n)) for n in names},
        {n: db.backend.row_count(n) for n in names},
        {
            (n, a): db.count_distinct(n, (a,))
            for n in names
            for a in db.schema.relation(n).attribute_names
        },
        database_fingerprint(db),
    )


def test_every_registered_backend_is_an_extension_backend(backend_factory):
    backend = backend_factory()
    try:
        assert isinstance(backend, ExtensionBackend)
    finally:
        backend.close()


class TestCountDistinct:
    def test_paper_section5_counts(self, db):
        assert db.count_distinct("Person", ("id",)) == 22
        assert db.count_distinct("HEmployee", ("no",)) == 15
        assert db.count_distinct("Assignment", ("dep",)) == 9
        assert db.count_distinct("Department", ("dep",)) == 8

    def test_nulls_skipped(self, db):
        # Department.emp has two NULLs among eight rows
        assert db.count_distinct("Department", ("emp",)) == 6
        assert db.count_distinct("Department", ("emp", "skill")) == 6

    def test_multi_attribute_and_order(self, db):
        assert db.count_distinct("HEmployee", ("no", "date")) == 30
        assert db.count_distinct("HEmployee", ("date", "no")) == 30

    def test_repeated_queries_stable_and_counted(self, db):
        first = db.count_distinct("Person", ("zip-code",))
        second = db.count_distinct("Person", ("zip-code",))
        assert first == second == 5
        assert db.counter.count_distinct == 2


class TestJoinCount:
    def test_paper_nei_shape(self, db):
        # the §6.1 Assignment/Department non-empty intersection: 9 vs 8, 6 shared
        assert db.join_count("Assignment", ("dep",), "Department", ("dep",)) == 6

    def test_full_inclusion_shape(self, db):
        assert db.join_count("HEmployee", ("no",), "Person", ("id",)) == 15

    def test_nulls_never_join(self, db):
        # Department.emp (6 distinct non-NULL) against HEmployee.no
        assert db.join_count("Department", ("emp",), "HEmployee", ("no",)) == 6

    def test_arity_mismatch(self, db):
        with pytest.raises(ArityError):
            db.join_count("HEmployee", ("no", "date"), "Person", ("id",))


class TestFDHolds:
    def test_paper_fds_hold(self, db):
        assert db.fd_holds("Department", ("emp",), ("skill", "proj"))
        assert db.fd_holds("Assignment", ("proj",), ("project-name",))
        assert db.fd_holds("Person", ("zip-code",), ("state",))

    def test_paper_fds_fail(self, db):
        assert not db.fd_holds("HEmployee", ("no",), ("salary",))
        assert not db.fd_holds("Department", ("proj",), ("emp",))
        assert not db.fd_holds("Assignment", ("emp",), ("dep",))

    def test_null_lhs_rows_skipped(self, db):
        # the two NULL-emp Department rows must not break emp -> location
        assert db.fd_holds("Department", ("emp",), ("skill",))

    def test_null_rhs_is_one_marked_value(self, backend_factory):
        schema = DatabaseSchema(
            [RelationSchema.build("t", ["k", "v"], types={"k": INTEGER})]
        )
        db = Database(schema, backend=backend_factory())
        db.insert_many("t", [[1, NULL], [1, NULL], [2, "x"]])
        assert db.fd_holds("t", ("k",), ("v",))
        db.insert("t", [1, "y"])  # NULL vs 'y' now disagree under key 1
        assert not db.fd_holds("t", ("k",), ("v",))


class TestInclusionHolds:
    def test_paper_inclusions(self, db):
        assert db.inclusion_holds("HEmployee", ("no",), "Person", ("id",))
        assert db.inclusion_holds("Department", ("emp",), "HEmployee", ("no",))
        assert not db.inclusion_holds("Assignment", ("dep",), "Department", ("dep",))
        assert not db.inclusion_holds("Person", ("id",), "HEmployee", ("no",))

    def test_null_bearing_tuples_skipped_on_the_left(self, db):
        # NULL Department.emp rows do not count as missing from HEmployee
        assert db.inclusion_holds("Department", ("emp",), "HEmployee", ("no",))

    def test_arity_mismatch(self, db):
        with pytest.raises(ArityError):
            db.inclusion_holds("HEmployee", ("no", "date"), "Person", ("id",))


class TestQueryCounter:
    def test_identical_bookkeeping(self, db):
        db.count_distinct("Person", ("id",))
        db.count_distinct("Person", ("id",))
        db.join_count("HEmployee", ("no",), "Person", ("id",))
        db.fd_holds("Department", ("emp",), ("skill",))
        db.inclusion_holds("HEmployee", ("no",), "Person", ("id",))
        assert db.counter.count_distinct == 2
        assert db.counter.join_count == 1
        assert db.counter.fd_checks == 1
        assert db.counter.inclusion_checks == 1
        assert db.counter.total() == 5

    @pytest.mark.parametrize("call, error", [
        (lambda db: db.count_distinct("Nobody", ("x",)), UnknownRelationError),
        (lambda db: db.join_count("Nobody", ("x",), "Person", ("id",)), UnknownRelationError),
        (lambda db: db.fd_holds("Nobody", ("x",), ("y",)), UnknownRelationError),
        (lambda db: db.count_distinct("Person", ("not-there",)), UnknownAttributeError),
        (lambda db: db.fd_holds("Person", ("id",), ("not-there",)), UnknownAttributeError),
        (
            lambda db: db.inclusion_holds("HEmployee", ("no",), "Person", ("not-there",)),
            UnknownAttributeError,
        ),
        (
            lambda db: db.join_count("HEmployee", ("no", "date"), "Person", ("id",)),
            ArityError,
        ),
    ], ids=[
        "relation-distinct", "relation-join", "relation-fd", "attribute-distinct",
        "attribute-fd", "attribute-inclusion", "arity-join",
    ])
    def test_a_call_that_raises_records_nothing(self, db, call, error):
        db.count_distinct("Person", ("id",))
        with pytest.raises(error):
            call(db)
        assert [e.primitive for e in db.tracer.events] == ["count_distinct"]
        assert db.counter.total() == 1


class TestEmptyAttributeLists:
    """No primitive takes an empty attribute list: one :class:`ArityError`
    on every backend, raised before the backend is asked, recording
    nothing."""

    @pytest.mark.parametrize("call", [
        lambda db: db.count_distinct("Person", ()),
        lambda db: db.fd_holds("Person", (), ("id",)),
        lambda db: db.fd_holds("Person", ("id",), ()),
        lambda db: db.join_count("HEmployee", (), "Person", ()),
        lambda db: db.inclusion_holds("HEmployee", (), "Person", ()),
    ], ids=["distinct", "fd-lhs", "fd-rhs", "join", "inclusion"])
    def test_is_an_arity_error(self, db, call):
        with pytest.raises(ArityError, match="empty attribute list"):
            call(db)
        assert db.tracer.events == []
        assert db.counter.total() == 0


class TestRowAccess:
    def test_row_count_and_scan_order(self, db):
        assert db.backend.row_count("Department") == 8
        rows = list(db.backend.rows("Department"))
        assert len(rows) == 8
        assert rows[0][0] == "D1" and rows[-1][0] == "D8"

    def test_insert_mapping_defaults_to_null(self, backend_factory):
        schema = DatabaseSchema(
            [RelationSchema.build("t", ["a", "b"], types={"a": INTEGER})]
        )
        db = Database(schema, backend=backend_factory())
        db.insert("t", {"a": 1})
        (values,) = list(db.backend.rows("t"))
        assert values[0] == 1 and values[1] is NULL

    def test_values_and_fingerprint_match_memory(self, backend_factory):
        """Regression: a REAL column stored ``2`` on memory but ``2.0`` on
        SQLite, so the same rows fingerprinted differently per backend."""

        def build(backend):
            schema = DatabaseSchema([
                RelationSchema.build(
                    "t", ["i", "r", "s"], types={"i": INTEGER, "r": REAL}
                )
            ])
            db = Database(schema, backend=backend)
            db.insert_many("t", [[1, 2, "a"], [2, 2.5, "b"], [3, NULL, None]])
            return db

        here, memory = build(backend_factory()), build(MemoryBackend())
        rows, expected = list(here.backend.rows("t")), list(memory.backend.rows("t"))
        assert rows == expected
        assert [tuple(map(type, r)) for r in rows] == [
            tuple(map(type, r)) for r in expected
        ]
        assert type(rows[0][1]) is float
        assert database_fingerprint(here) == database_fingerprint(memory)

    def test_nan_is_stored_as_null(self, backend_factory):
        """Regression: memory kept each REAL NaN as a distinct non-NULL
        value while SQLite stored NULL, so ``||r[x]||`` read 3 against 1
        and ``k -> x`` failed on memory but held on SQLite."""

        def build(backend, rows):
            schema = DatabaseSchema([
                RelationSchema.build("r", ["k", "x"], types={"k": INTEGER, "x": REAL})
            ])
            db = Database(schema, backend=backend)
            db.insert_many("r", rows)
            return db

        nan = float("nan")
        here = build(backend_factory(), [[1, nan], [1, nan], [2, 1.5]])
        sqlite = build(SQLiteBackend(), [[1, nan], [1, nan], [2, 1.5]])
        nulls = build(backend_factory(), [[1, NULL], [1, NULL], [2, 1.5]])
        assert here.count_distinct("r", ("x",)) == 1
        assert here.fd_holds("r", ("k",), ("x",))
        assert list(here.backend.rows("r")) == [(1, NULL), (1, NULL), (2, 1.5)]
        assert database_fingerprint(here) == database_fingerprint(sqlite)
        assert database_fingerprint(here) == database_fingerprint(nulls)

    def test_negative_zero_is_stored_as_zero(self, backend_factory):
        """Regression: memory kept a REAL ``-0.0`` while SQLite
        stored ``0.0``, so the same rows fingerprinted differently per
        backend."""

        def build(backend, rows):
            schema = DatabaseSchema([
                RelationSchema.build("r", ["k", "x"], types={"k": INTEGER, "x": REAL})
            ])
            db = Database(schema, backend=backend)
            db.insert_many("r", rows)
            return db

        here = build(backend_factory(), [[2, -0.0]])
        sqlite = build(SQLiteBackend(), [[2, -0.0]])
        zero = build(backend_factory(), [[2, 0.0]])
        here.table("r").insert([3, -0.0])
        zero.table("r").insert([3, 0.0])
        rows = list(here.backend.rows("r"))
        assert rows == [(2, 0.0), (3, 0.0)]
        assert all(math.copysign(1.0, x) == 1.0 for _, x in rows)
        assert here.count_distinct("r", ("x",)) == 1
        sqlite.insert("r", [3, -0.0])
        assert database_fingerprint(here) == database_fingerprint(sqlite)
        assert database_fingerprint(here) == database_fingerprint(zero)

    def test_insert_validates_typing(self, db):
        with pytest.raises(TypingError):
            db.insert("Person", ["not-an-int", "x", "y", 1, "69100", "Rhone"])

    def test_table_view_writes_through(self, db):
        before = db.count_distinct("Person", ("id",))
        db.table("Person").insert(
            [99, "person-99", "rue Zéro", 1, "69100", "Rhone"]
        )
        assert db.count_distinct("Person", ("id",)) == before + 1

    def test_unknown_relation(self, db):
        with pytest.raises(UnknownRelationError):
            db.table("Nobody")
        with pytest.raises(UnknownRelationError):
            db.count_distinct("Nobody", ("x",))
        with pytest.raises(UnknownRelationError):
            db.insert("Nobody", [1])

    def test_unknown_attribute(self, db):
        with pytest.raises(UnknownAttributeError):
            db.count_distinct("Person", ("not-there",))
        with pytest.raises(UnknownAttributeError):
            db.fd_holds("Person", ("id",), ("not-there",))


def _projected(scan, attrs):
    """A scan's tuples projected on *attrs*, in scan order."""
    project = scan.projector(attrs)
    return [project(t) for t in scan]


def _mirror_projection(db, relation, attrs):
    return [row.project(attrs) for row in db.table(relation)]


class TestScan:
    """``scan(r, attrs)`` is the projection of the mirror's rows, in order,
    without building the mirror."""

    @pytest.mark.parametrize("relation, attrs", [
        ("Person", ("id",)),
        ("Department", ("emp",)),                 # two NULLs
        ("Department", ("emp", "skill")),         # composite, NULL-bearing
        ("HEmployee", ("date", "no")),            # composite, out of order
        ("Assignment", ()),
    ])
    def test_projection_of_the_rows_in_order(self, db, relation, attrs):
        hydrated = set(getattr(db.backend, "_mirrors", {}))
        scan = db.scan(relation, attrs)
        got = _projected(scan, attrs)
        assert set(getattr(db.backend, "_mirrors", {})) == hydrated
        assert got == _mirror_projection(db, relation, attrs)

    def test_typed_values_and_nulls(self, backend_factory):
        schema = DatabaseSchema([RelationSchema.build(
            "t", ["k", "r", "b", "d", "s"],
            types={"k": INTEGER, "r": REAL, "b": BOOLEAN, "d": DATE},
        )])
        db = Database(schema, backend=backend_factory())
        db.insert_many("t", [
            [1, 2, True, "2020-01-02", "x"], [2, NULL, False, NULL, NULL],
            [NULL, 2.5, NULL, "1999-12-31", "y"], [3, -0.0, True, NULL, "z"],
        ])
        for attrs in (("k", "r", "b", "d", "s"), ("b",), ("r", "k"), ("d", "b")):
            got = _projected(db.scan("t", attrs), attrs)
            want = _mirror_projection(db, "t", attrs)
            assert got == want
            assert [tuple(map(type, t)) for t in got] == [
                tuple(map(type, t)) for t in want
            ]

    def test_writes_through_the_mirror_are_seen(self, db):
        mirror = db.table("Department")
        mirror.insert(["D9", NULL, "S9", "L9", "P9"])
        mirror.delete_where(lambda row: row["dep"] == "D2")
        attrs = ("dep", "emp")
        assert _projected(db.scan("Department", attrs), attrs) == [
            row.project(attrs) for row in mirror
        ]

    def test_rows_rebuilds_picked_tuples_without_a_mirror(self, db):
        hydrated = set(getattr(db.backend, "_mirrors", {}))
        scan = db.scan("Person", db.schema.relation("Person").attribute_names)
        picked = list(scan)[2:5]
        rows = scan.rows(picked[::-1])
        assert set(getattr(db.backend, "_mirrors", {})) == hydrated
        assert rows == list(db.table("Person"))[2:5][::-1]
        assert [repr(r) for r in rows] == [repr(r) for r in list(db.table("Person"))[2:5][::-1]]
        assert scan.rows([]) == []

    def test_unknown_relation_and_attribute(self, db):
        with pytest.raises(UnknownRelationError):
            db.scan("Nobody", ("x",))
        with pytest.raises(UnknownAttributeError):
            db.scan("Person", ("id", "not-there"))

    def test_a_scan_is_not_counted(self, db):
        db.counter.reset()
        list(db.scan("Person", ("id",)))
        assert db.counter.total() == 0


class TestRelationLifecycle:
    def test_create_insert_drop(self, backend_factory):
        db = Database(backend=backend_factory())
        db.create_relation(
            RelationSchema.build("t", ["v"], types={"v": INTEGER})
        )
        db.insert_many("t", [[1], [2], [2]])
        assert db.count_distinct("t", ("v",)) == 2
        db.drop_relation("t")
        with pytest.raises(UnknownRelationError):
            db.count_distinct("t", ("v",))

    def test_recreate_under_same_name_serves_fresh_results(self, backend_factory):
        """Regression: a recreated relation reaching the same mutation
        version as its predecessor must not serve the old distinct set."""
        db = Database(backend=backend_factory())
        schema = RelationSchema.build("t", ["v"], types={"v": INTEGER})
        db.create_relation(schema)
        db.insert_many("t", [[1], [2], [3]])       # version 3
        assert db.count_distinct("t", ("v",)) == 3
        db.drop_relation("t")
        db.create_relation(
            RelationSchema.build("t", ["v"], types={"v": INTEGER})
        )
        db.insert_many("t", [[7], [7], [7]])       # version 3 again
        assert db.count_distinct("t", ("v",)) == 1

    def test_replace_relation_projects_and_keeps_duplicates(self, backend_factory):
        db = Database(backend=backend_factory())
        db.create_relation(
            RelationSchema.build("t", ["a", "b"], types={"a": INTEGER})
        )
        db.insert_many("t", [[1, "x"], [1, "y"], [2, "z"]])
        assert db.count_distinct("t", ("a", "b")) == 3
        assert db.replace_relation(
            RelationSchema.build("t", ["a"], types={"a": INTEGER})
        ) is None
        assert db.backend.row_count("t") == 3      # duplicates kept
        assert db.count_distinct("t", ("a",)) == 2
        with pytest.raises(UnknownAttributeError):
            db.count_distinct("t", ("b",))


class TestCopy:
    def test_copy_preserves_backend_kind_and_values(self, backend_factory):
        db = build_paper_database(backend=backend_factory())
        clone = db.copy()
        assert type(clone.backend) is type(db.backend)
        assert clone.count_distinct("Person", ("id",)) == 22
        clone.insert("Person", [99, "x", "y", 1, "69100", "Rhone"])
        assert db.count_distinct("Person", ("id",)) == 22   # original untouched

    def test_copy_converts_between_backends(self, backend_factory):
        from repro.backends import MemoryBackend

        db = build_paper_database(backend=backend_factory())
        materialized = db.copy(backend=MemoryBackend())
        assert materialized.count_distinct("Person", ("id",)) == 22

    @pytest.mark.parametrize("mutated", ["original", "copy"])
    @pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
    def test_copy_is_independent(self, backend_factory, mutation, mutated):
        db = build_paper_database(backend=backend_factory())
        clone = db.copy()
        target, other = (db, clone) if mutated == "original" else (clone, db)
        before = _observe(other)
        _MUTATIONS[mutation](target)
        assert _observe(target) != before      # the mutation took effect
        assert _observe(other) == before

    def test_copied_rows_are_bound_to_the_copy_schema(self, backend_factory):
        db = build_paper_database(backend=backend_factory())
        clone = db.copy()
        for name in clone.schema.relation_names:
            table = clone.table(name)
            assert table.schema is clone.schema.relation(name)
            assert table.schema is not db.schema.relation(name)
            assert len(table) == len(db.table(name))
            assert all(row.schema is table.schema for row in table)
            assert [r.values for r in table] == [r.values for r in db.table(name)]

    def test_copy_starts_with_cold_caches(self, backend_factory):
        db = build_paper_database(backend=backend_factory())
        db.count_distinct("Person", ("id",))
        db.join_count("HEmployee", ("no",), "Person", ("id",))
        assert db.backend.probe("count_distinct", ("Person",), (("id",),))[0]
        clone = db.copy()
        for primitive, relations, attributes in [
            ("count_distinct", ("Person",), (("id",),)),
            ("join_count", ("HEmployee", "Person"), (("no",), ("id",))),
        ]:
            hit, rows = clone.backend.probe(primitive, relations, attributes)
            assert hit is False
            assert rows == sum(clone.backend.row_count(r) for r in relations)


def _cold_fingerprint(db: Database, backend_factory) -> str:
    """The fingerprint of a fresh database built from *db*'s rows."""
    fresh = Database(db.schema.copy(), backend=backend_factory())
    for name in db.schema.relation_names:
        fresh.insert_many(name, db.backend.rows(name))
    return database_fingerprint(fresh)


def _sqlite_store(path: str = ":memory:") -> Database:
    """The paper database in a SQLite store with no row mirror, so
    scans read what raw SQL wrote."""
    return build_paper_database().copy(backend=SQLiteBackend(path))


#: one raw statement per kind of SQL write, run on the backend's connection
_RAW_WRITES = {
    "insert": 'INSERT INTO "Person" ("id", "name") VALUES (99, \'person-99\')',
    "update": 'UPDATE "Person" SET "name" = \'renamed\' WHERE "id" = 1',
    "delete": 'DELETE FROM "Assignment"',
    "drop-create": 'DROP TABLE "Assignment"; CREATE TABLE "Assignment" '
                   '("emp" INTEGER, "dep" TEXT, "proj" TEXT, "date" TEXT, '
                   '"project-name" TEXT)',
}


class TestFingerprintMemo:
    """Each relation's digest is memoised under the backend's write
    token; after any write, the fingerprint must equal a cold one."""

    def test_every_backend_memoises_every_relation(self, db, monkeypatch):
        first = database_fingerprint(db)
        assert set(db.backend.fingerprint_memo) == set(db.schema.relation_names)
        scanned = []
        rows = db.backend.rows
        monkeypatch.setattr(
            db.backend, "rows", lambda name: scanned.append(name) or rows(name)
        )
        assert database_fingerprint(db) == first
        assert scanned == []

    @pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
    def test_each_mutation_refreshes_the_memo(self, backend_factory, mutation):
        db = build_paper_database(backend=backend_factory())
        before = database_fingerprint(db)
        _MUTATIONS[mutation](db)
        after = database_fingerprint(db)
        assert after != before
        assert after == _cold_fingerprint(db, backend_factory)

    def test_writes_through_the_table_view_refresh_the_memo(self, backend_factory):
        db = build_paper_database(backend=backend_factory())
        before = database_fingerprint(db)
        person = db.table("Person")
        person.insert([99, "person-99", "rue Zéro", 1, "69100", "Rhone"])
        inserted = database_fingerprint(db)
        assert inserted != before
        assert inserted == _cold_fingerprint(db, backend_factory)
        person.insert_many([[100, "person-100", "rue Un", 2, "69100", "Rhone"]])
        assert database_fingerprint(db) not in (before, inserted)
        assert database_fingerprint(db) == _cold_fingerprint(db, backend_factory)

    def test_equal_up_to_row_order_and_across_backends(self, backend_factory):
        db = build_paper_database(backend=backend_factory())
        reversed_rows = Database(db.schema.copy(), backend=backend_factory())
        for name in db.schema.relation_names:
            reversed_rows.insert_many(name, list(db.backend.rows(name))[::-1])
        expected = database_fingerprint(build_paper_database())
        assert database_fingerprint(db) == expected
        assert database_fingerprint(reversed_rows) == expected

    @pytest.mark.parametrize("write", sorted(_RAW_WRITES))
    def test_raw_sql_on_the_connection_refreshes_the_memo(self, write):
        db = _sqlite_store()
        before = database_fingerprint(db)
        db.backend.connection.executescript(_RAW_WRITES[write])
        after = database_fingerprint(db)
        assert after != before
        assert after == _cold_fingerprint(db, SQLiteBackend)

    def test_a_commit_from_another_connection_refreshes_the_memo(self, tmp_path):
        path = str(tmp_path / "shared.db")
        db = _sqlite_store(path)
        before = database_fingerprint(db)
        other = sqlite3.connect(path)
        other.execute(_RAW_WRITES["insert"])
        other.commit()
        other.close()
        after = database_fingerprint(db)
        assert after != before
        assert after == _cold_fingerprint(db, MemoryBackend)
        db.close()


class TestRawWritesOnSQLite:
    """Every SQLite memo is keyed on the relation's write token, so raw
    SQL on the connection reaches the primitives as it reaches
    ``rows()``: neither a hydrated row mirror nor an answer cached
    before the write hides it."""

    #: (relation, lhs, rhs) per relation the raw writes touch
    PROBES = [("Person", ("name",), ("id",)), ("Assignment", ("emp",), ("dep",))]

    @pytest.mark.parametrize("write", sorted(_RAW_WRITES))
    def test_primitives_agree_with_rows_after_a_raw_write(self, write):
        db = _sqlite_store()
        for relation, lhs, rhs in self.PROBES:
            db.table(relation)  # hydrate the row mirror
            db.backend.row_count(relation)
            db.count_distinct(relation, rhs)
            db.fd_holds(relation, lhs, rhs)
        db.backend.connection.executescript(_RAW_WRITES[write])
        fresh = Database(db.schema.copy(), backend=MemoryBackend())
        for name in db.schema.relation_names:
            fresh.insert_many(name, db.backend.rows(name))
        for relation, lhs, rhs in self.PROBES:
            assert db.backend.row_count(relation) == len(list(db.backend.rows(relation)))
            assert db.count_distinct(relation, rhs) == fresh.count_distinct(relation, rhs)
            assert db.fd_holds(relation, lhs, rhs) == fresh.fd_holds(relation, lhs, rhs)


class TestProbeHook:
    """`probe(...)` — the observability contract behind `repro profile`.

    A probe predicts the cost of an imminent primitive without running
    it: `(cache_hit, rows_touched)`.  The prediction must track the
    distinct-value cache — cold scans cost the relation's row count,
    warm ones are free — and mutations must invalidate it.  Probing
    itself must never warm the cache.
    """

    def test_cold_distinct_probe_costs_one_scan(self, db):
        hit, rows = db.backend.probe(
            "count_distinct", ("Person",), (("id",),)
        )
        assert hit is False
        assert rows == db.backend.row_count("Person")

    def test_warm_distinct_probe_is_free(self, db):
        db.count_distinct("Person", ("id",))
        hit, rows = db.backend.probe(
            "count_distinct", ("Person",), (("id",),)
        )
        assert hit is True
        assert rows == 0

    def test_probe_is_side_effect_free(self, db):
        db.backend.probe("count_distinct", ("Person",), (("id",),))
        hit, _ = db.backend.probe(
            "count_distinct", ("Person",), (("id",),)
        )
        assert hit is False        # still cold: probing did not warm it

    def test_cold_join_probe_is_a_miss_with_scan_cost(self, db):
        both = db.backend.row_count("HEmployee") + db.backend.row_count(
            "Person"
        )
        hit, rows = db.backend.probe(
            "join_count",
            ("HEmployee", "Person"),
            (("no",), ("id",)),
        )
        assert hit is False
        assert 0 < rows <= both

    def test_warm_join_probe_is_a_hit(self, db):
        db.join_count("HEmployee", ("no",), "Person", ("id",))
        hit, rows = db.backend.probe(
            "join_count",
            ("HEmployee", "Person"),
            (("no",), ("id",)),
        )
        assert hit is True
        assert rows == 0

    def test_cold_fd_probe_costs_the_lhs_scan(self, db):
        hit, rows = db.backend.probe(
            "fd_holds", ("HEmployee",), (("no",), ("salary",))
        )
        assert hit is False
        assert rows == db.backend.row_count("HEmployee")

    def test_mutation_invalidates_the_prediction(self, db):
        db.count_distinct("Person", ("id",))
        db.insert("Person", [99, "person-99", "rue Zéro", 1, "69100", "Rhone"])
        hit, rows = db.backend.probe(
            "count_distinct", ("Person",), (("id",),)
        )
        assert hit is False
        assert rows == db.backend.row_count("Person")
