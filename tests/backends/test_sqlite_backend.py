"""SQLite backend specifics: introspection, persistence, caching, e2e.

The contract suite (test_contract.py) proves the primitives agree with
the in-memory engine; this module covers what only the SQLite backend
does — reading ``K``/``N`` from the data dictionary, the ``.db``
round trip, statement/result caching against the engine, and the
acceptance path: reverse-engineering a ``.db`` file produces the same
3NF schema, RIC set and EER diagram as the in-memory seed.
"""

import sqlite3

import pytest

from repro.backends import (
    SQLiteBackend,
    dtype_from_declared,
    introspect_schema,
    open_sqlite,
)
from repro.core import DBREPipeline, ScriptedExpert
from repro.exceptions import DataError, TypingError
from repro.relational import Database, DatabaseSchema, RelationSchema
from repro.relational.domain import BOOLEAN, DATE, INTEGER, NULL, REAL, TEXT
from repro.storage.sqlite_io import declared_table_sql, save_sqlite
from repro.workloads.paper_example import (
    PAPER_EXPECTED,
    build_paper_database,
    paper_expert_script,
    paper_program_corpus,
)


class TestDtypeFromDeclared:
    @pytest.mark.parametrize(
        "declared, expected",
        [
            ("INTEGER", INTEGER),
            ("int", INTEGER),
            ("BIGINT", INTEGER),
            ("TEXT", TEXT),
            ("VARCHAR(40)", TEXT),
            ("NCHAR(10)", TEXT),
            ("CLOB", TEXT),
            ("REAL", REAL),
            ("DOUBLE PRECISION", REAL),
            ("FLOAT", REAL),
            ("NUMERIC(9, 2)", REAL),
            ("DECIMAL", REAL),
            ("DATE", DATE),
            ("DATETIME", DATE),
            ("TIMESTAMP", DATE),
            ("BOOLEAN", BOOLEAN),
            ("BOOL", BOOLEAN),
            (None, TEXT),
            ("", TEXT),
            ("BLOB", TEXT),
        ],
    )
    def test_affinity_mapping(self, declared, expected):
        assert dtype_from_declared(declared) == expected

    def test_bool_and_date_win_over_numeric_affinity(self):
        # 'BOOLEAN' contains no INT, but 'DATETIME' would match nothing
        # numeric either — the real traps are the combined names
        assert dtype_from_declared("BOOLEAN DEFAULT 0") == BOOLEAN
        assert dtype_from_declared("DATE NOT NULL") == DATE


class TestIntrospectSchema:
    @pytest.fixture
    def conn(self):
        conn = sqlite3.connect(":memory:")
        yield conn
        conn.close()

    def test_table_info_maps_to_k_and_n(self, conn):
        conn.execute(
            'CREATE TABLE "t" ('
            '"id" INTEGER NOT NULL, "name" VARCHAR(40), '
            '"born" DATE, "score" REAL NOT NULL, '
            'PRIMARY KEY ("id"))'
        )
        schema = introspect_schema(conn)
        rel = schema.relation("t")
        assert tuple(rel.attribute_names) == ("id", "name", "born", "score")
        assert rel.primary_key().names == ("id",)
        non_null = {a.name for a in rel.attributes if not a.nullable}
        assert non_null == {"id", "score"}
        assert rel.attribute("born").dtype == DATE

    def test_unique_indexes_join_the_key_set(self, conn):
        conn.execute(
            "CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT, c TEXT)"
        )
        conn.execute("CREATE UNIQUE INDEX u_bc ON t (b, c)")
        conn.execute("CREATE INDEX plain_c ON t (c)")  # not unique: ignored
        rel = introspect_schema(conn).relation("t")
        uniques = {u.attributes.names for u in rel.uniques}
        assert uniques == {("a",), ("b", "c")}

    def test_partial_and_expression_indexes_are_skipped(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        conn.execute(
            "CREATE UNIQUE INDEX part ON t (a) WHERE b IS NOT NULL"
        )
        conn.execute("CREATE UNIQUE INDEX expr ON t (lower(b))")
        rel = introspect_schema(conn).relation("t")
        assert rel.uniques == ()

    def test_internal_sqlite_tables_are_ignored(self, conn):
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.execute("CREATE UNIQUE INDEX u_a ON t (a)")  # sqlite_autoindex
        schema = introspect_schema(conn)
        assert list(schema.relation_names) == ["t"]

    def test_multi_column_pk_keeps_declared_order(self, conn):
        conn.execute(
            "CREATE TABLE t (x TEXT, y INTEGER, z DATE, "
            "PRIMARY KEY (y, x))"
        )
        rel = introspect_schema(conn).relation("t")
        assert rel.primary_key().names == ("y", "x")


class TestSaveAndOpen:
    def test_declared_table_sql_carries_the_dictionary(self):
        db = build_paper_database()
        sql = declared_table_sql(db.schema.relation("Person"))
        assert 'PRIMARY KEY ("id")' in sql
        assert '"id" INTEGER NOT NULL' in sql
        assert '"zip-code"' in sql  # hyphenated names survive quoting

    def test_round_trip_recovers_k_and_n(self, tmp_path):
        path = str(tmp_path / "paper.db")
        save_sqlite(build_paper_database(), path)
        db = open_sqlite(path)
        try:
            assert tuple(db.schema.key_set()) == PAPER_EXPECTED.key_set
            assert (
                tuple(db.schema.not_null_set()) == PAPER_EXPECTED.not_null_set
            )
            assert db.count_distinct("Person", ("id",)) == 22
        finally:
            db.close()

    def test_round_trip_preserves_values_and_nulls(self, tmp_path):
        path = str(tmp_path / "paper.db")
        original = build_paper_database()
        save_sqlite(original, path)
        db = open_sqlite(path)
        try:
            assert list(db.backend.rows("Department")) == list(
                original.backend.rows("Department")
            )
            assert any(
                values[1] is NULL for values in db.backend.rows("Department")
            )
        finally:
            db.close()

    def test_dirty_extension_refuses_to_save(self, tmp_path):
        db = build_paper_database()
        first = next(db.backend.rows("Person"))
        db.insert("Person", first)  # duplicate declared key
        with pytest.raises(DataError):
            save_sqlite(db, str(tmp_path / "dirty.db"))

    def test_dirty_save_leaves_no_half_written_file(self, tmp_path):
        db = build_paper_database()
        db.insert("Person", next(db.backend.rows("Person")))
        path = tmp_path / "dirty.db"
        with pytest.raises(DataError):
            save_sqlite(db, str(path))
        assert not path.exists()

    def test_missing_file_is_an_error_not_an_empty_database(self, tmp_path):
        path = tmp_path / "nope.db"
        with pytest.raises(DataError):
            open_sqlite(str(path))
        assert not path.exists()  # and nothing was created as a side effect

    def test_non_sqlite_file_is_a_clean_error(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"\x00\x01not a database\xff" * 10)
        with pytest.raises(DataError):
            open_sqlite(str(path))

    def test_open_from_connection(self):
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b BOOLEAN)")
        conn.execute("INSERT INTO t VALUES (1, 1), (2, 0), (3, NULL)")
        db = open_sqlite(conn)
        try:
            values = [row[1] for row in db.backend.rows("t")]
            assert values == [True, False, NULL]
            assert db.count_distinct("t", ("b",)) == 2
        finally:
            db.close()
            conn.close()  # open_sqlite does not own a passed connection


class TestStatementCaching:
    @pytest.fixture
    def db(self):
        return build_paper_database(backend=SQLiteBackend())

    def _traced(self, db):
        """The statements the connection runs from now on, except the
        write-token PRAGMAs every memo lookup reads."""
        statements = []
        db.backend.connection.set_trace_callback(
            lambda sql: sql.startswith("PRAGMA") or statements.append(sql)
        )
        return statements

    def test_repeat_query_hits_the_result_memo(self, db):
        db.count_distinct("Person", ("id",))
        statements = self._traced(db)
        assert db.count_distinct("Person", ("id",)) == 22
        assert statements == []  # answered from the memo, engine untouched

    def test_write_invalidates_result_but_reuses_statement(self, db):
        assert db.count_distinct("Person", ("id",)) == 22
        db.insert("Person", [99, "x", "y", 1, "69100", "Rhone"])
        statements = self._traced(db)
        assert db.count_distinct("Person", ("id",)) == 23
        distinct_queries = [s for s in statements if "DISTINCT" in s]
        assert len(distinct_queries) == 1  # recompiled? no — re-executed once

    def test_write_to_one_relation_keeps_other_memos(self, db):
        db.count_distinct("Person", ("id",))
        db.count_distinct("Department", ("dep",))
        db.insert("Person", [99, "x", "y", 1, "69100", "Rhone"])
        statements = self._traced(db)
        assert db.count_distinct("Department", ("dep",)) == 8
        assert statements == []  # Department memo survived the Person write

    @pytest.mark.parametrize("ddl", ["drop", "create", "replace"])
    def test_ddl_on_one_relation_keeps_other_memos(self, db, ddl):
        """The backend's own DDL moves the connection-wide schema
        version; it is booked like its row changes, so only the
        written relation's token moves."""
        db.count_distinct("Department", ("dep",))
        token = db.backend.write_token("Department")
        if ddl == "drop":
            db.drop_relation("Person")
        elif ddl == "create":
            db.create_relation(RelationSchema.build("Extra", ["x"], types={"x": INTEGER}))
        else:
            person = db.schema.relation("Person")
            db.backend.replace_relation(
                RelationSchema("Person", [person.attributes[0]])
            )
        statements = self._traced(db)
        assert db.backend.write_token("Department") == token
        assert db.count_distinct("Department", ("dep",)) == 8
        assert statements == []  # Department memo survived the DDL

    def test_raw_ddl_still_moves_every_token(self, db):
        token = db.backend.write_token("Department")
        db.backend.connection.execute("CREATE TABLE raw_extra (x INTEGER)")
        assert db.backend.write_token("Department") != token

    def test_join_memo_guards_both_relations(self, db):
        assert db.join_count("HEmployee", ("no",), "Person", ("id",)) == 15
        db.insert("Person", [200, "x", "y", 1, "69100", "Rhone"])
        db.insert("HEmployee", {"no": 200, "date": "1996-02-26", "salary": 1})
        statements = self._traced(db)
        assert db.join_count("HEmployee", ("no",), "Person", ("id",)) == 16
        assert any("INTERSECT" in s for s in statements)

    def test_ddl_purges_compiled_statements(self, db):
        db.count_distinct("Person", ("id",))
        assert any(
            "Person" in key for key in db.backend._statements
        )
        db.drop_relation("Person")
        assert not any(
            "Person" in key for key in db.backend._statements
        )
        assert not any("Person" in key for key in db.backend._results)


class TestEndToEnd:
    """The acceptance criterion: a ``.db`` file reverse-engineers to the
    same 3NF schema, RIC set and EER diagram as the in-memory path, with
    ``K``/``N`` taken from SQLite's data dictionary."""

    @pytest.fixture(scope="class")
    def memory_result(self):
        return DBREPipeline(
            build_paper_database(), ScriptedExpert(paper_expert_script())
        ).run(corpus=paper_program_corpus())

    @pytest.fixture(scope="class")
    def sqlite_result(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("e2e") / "paper.db")
        save_sqlite(build_paper_database(), path)
        db = open_sqlite(path)
        result = DBREPipeline(
            db, ScriptedExpert(paper_expert_script())
        ).run(corpus=paper_program_corpus())
        db.close()
        return result

    def test_dictionary_k_n_match_the_declared_inputs(self, sqlite_result):
        assert tuple(sqlite_result.key_set) == PAPER_EXPECTED.key_set
        assert tuple(sqlite_result.not_null_set) == PAPER_EXPECTED.not_null_set

    def test_same_dependencies(self, memory_result, sqlite_result):
        assert set(sqlite_result.inds) == set(memory_result.inds)
        assert set(sqlite_result.fds) == set(memory_result.fds)
        assert set(sqlite_result.hidden) == set(memory_result.hidden)

    def test_same_3nf_schema_and_ric(self, memory_result, sqlite_result):
        assert {
            r.name: tuple(r.attribute_names)
            for r in sqlite_result.restructured.schema
        } == {
            r.name: tuple(r.attribute_names)
            for r in memory_result.restructured.schema
        }
        assert set(sqlite_result.ric) == set(memory_result.ric)
        assert set(sqlite_result.ric) == set(PAPER_EXPECTED.ric)

    def test_same_eer_diagram(self, memory_result, sqlite_result):
        assert {e.name for e in sqlite_result.eer.entities} == {
            e.name for e in memory_result.eer.entities
        }
        assert {
            (l.sub, l.sup) for l in sqlite_result.eer.isa_links
        } == {(l.sub, l.sup) for l in memory_result.eer.isa_links}

    def test_same_query_budget(self, memory_result, sqlite_result):
        """Pushdown changes where queries run, never how many are asked."""
        assert (
            sqlite_result.extension_queries == memory_result.extension_queries
        )


def _master(db):
    """The copy-relevant columns of a store's ``sqlite_master``."""
    return db.backend.connection.execute(
        "SELECT type, name, tbl_name, sql FROM sqlite_master"
    ).fetchall()


def _contents(db):
    from repro.service.jobs import database_fingerprint

    return (
        {n: list(db.backend.rows(n)) for n in db.schema.relation_names},
        database_fingerprint(db),
    )


class TestSameKindCopy:
    """``Database.copy()`` on SQLite byte-copies a store the backend built
    itself and otherwise takes the validating path; either way the result
    must be the store that path, ``copy(backend=...)``, builds."""

    def test_only_a_backend_built_well_typed_store_is_byte_copied(
        self, constrained
    ):
        db = build_paper_database(backend=SQLiteBackend())
        twin = db.backend.clone(db.schema.copy())
        assert twin is not None
        twin.close()
        assert constrained.backend.clone(constrained.schema.copy()) is None
        db.backend.connection.execute(
            "INSERT INTO \"Person\" (\"id\") VALUES ('abc')"
        )
        assert db.backend.clone(db.schema.copy()) is None

    def test_the_twin_inherits_the_typing_verdicts(self):
        """The byte copy passed every ``_STORED_AS_IS`` scan, so the
        twin's first scan of each relation runs no typing scan again."""
        db = build_paper_database(backend=SQLiteBackend())
        clone = db.copy()
        statements = []
        clone.backend.connection.set_trace_callback(statements.append)
        for relation in clone.schema:
            scan = clone.backend.scan(relation.name, relation.attribute_names)
            assert list(scan.tuples) == list(db.backend.rows(relation.name))
        assert statements and not [s for s in statements if "typeof" in s]

    @pytest.fixture
    def constrained(self, tmp_path):
        path = str(tmp_path / "legacy.db")
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE city (cid INTEGER PRIMARY KEY, cname VARCHAR(20) NOT NULL);
            CREATE TABLE person (
                pid INTEGER PRIMARY KEY AUTOINCREMENT,
                pname TEXT NOT NULL UNIQUE,
                home INTEGER,
                born DATE,
                active BOOLEAN
            );
            CREATE TABLE audit (msg TEXT);
            CREATE INDEX person_home ON person (home);
            CREATE TRIGGER person_log AFTER INSERT ON person
                BEGIN INSERT INTO audit VALUES (new.pname); END;
            CREATE VIEW lyon AS SELECT pname FROM person WHERE home = 1;
            INSERT INTO city VALUES (1, 'Lyon'), (2, 'Paris');
            INSERT INTO person (pname, home, born, active) VALUES
                ('a', 1, '1990-01-02', 1), ('b', 2, NULL, 0), ('c', NULL, '1985-12-31', NULL);
            """
        )
        conn.commit()
        conn.close()
        db = open_sqlite(path)
        yield db
        db.close()

    def test_constrained_file_copies_to_the_backend_ddl(self, constrained):
        before = _master(constrained)
        fast = constrained.copy()
        slow = constrained.copy(backend=SQLiteBackend())
        assert _master(fast) == _master(slow)
        assert [name for _, name, _, _ in _master(fast)] == list(
            constrained.schema.relation_names
        )
        assert _contents(fast) == _contents(slow) == _contents(constrained)
        assert _master(constrained) == before
        # no source constraint, index or trigger came along
        first = next(fast.backend.rows("person"))
        fast.insert("person", first)
        assert fast.backend.row_count("person") == 4
        assert fast.backend.row_count("audit") == 3
        assert constrained.backend.row_count("person") == 3

    def test_tables_outside_the_schema_stay_behind(self, constrained):
        schema = constrained.schema.copy()
        schema.remove("audit")
        db = Database(schema, backend=SQLiteBackend(
            connection=constrained.backend.connection
        ))
        copy = db.copy()
        assert [name for _, name, _, _ in _master(copy)] == ["city", "person"]
        assert _contents(copy) == _contents(db.copy(backend=SQLiteBackend()))

    def test_copy_of_a_backend_store_matches_the_validating_copy(self):
        db = build_paper_database(backend=SQLiteBackend())
        db.table("Person").delete_where(lambda row: row["id"] % 3 == 0)
        fast = db.copy()
        slow = db.copy(backend=SQLiteBackend())
        assert _master(fast) == _master(slow)
        assert _contents(fast) == _contents(slow) == _contents(db)

    @pytest.mark.parametrize("store", ["foreign", "backend"])
    def test_mistyped_store_raises_the_validating_copy_error(self, store):
        conn = sqlite3.connect(":memory:", isolation_level=None)
        if store == "foreign":
            conn.execute("CREATE TABLE t (k INTEGER, v TEXT)")
            db = open_sqlite(conn)
        else:
            schema = DatabaseSchema(
                [RelationSchema.build("t", ["k", "v"], types={"k": INTEGER})]
            )
            db = Database(schema, backend=SQLiteBackend(connection=conn))
        conn.execute("INSERT INTO t VALUES (1, 'x'), ('abc', 'y')")
        with pytest.raises(TypingError) as fast:
            db.copy()
        with pytest.raises(TypingError) as slow:
            db.copy(backend=SQLiteBackend())
        assert str(fast.value) == str(slow.value)
        assert "'abc'" in str(fast.value)

    def test_foreign_values_are_normalized_like_the_validating_copy(self):
        conn = sqlite3.connect(":memory:", isolation_level=None)
        conn.execute("CREATE TABLE t (k INTEGER, b BOOLEAN, r REAL, n NUMERIC)")
        conn.execute(
            "INSERT INTO t VALUES (1, 1, 1, 3), (2, 1, 2.5, 4.0), "
            "(3, 0, NULL, NULL), (4, NULL, 7, 2.5)"
        )
        conn.execute("CREATE TABLE w (k INTEGER PRIMARY KEY, v TEXT) WITHOUT ROWID")
        conn.execute("INSERT INTO w VALUES (2, 'b'), (1, 'a')")
        db = open_sqlite(conn)
        fast = db.copy()
        slow = db.copy(backend=SQLiteBackend())
        assert _contents(fast) == _contents(slow)
        assert [row[1] for row in fast.backend.rows("t")] == [True, True, False, NULL]
        # NUMERIC stores whole numbers as integers; the REAL domain widens them
        assert [row[3] for row in fast.backend.rows("t")] == [3.0, 4.0, NULL, 2.5]
        assert {type(row[3]) for row in db.backend.rows("t")} == {float, type(NULL)}
        assert fast.count_distinct("t", ("b",)) == slow.count_distinct("t", ("b",)) == 2
        assert list(fast.backend.rows("w")) == [(1, "a"), (2, "b")]

    @pytest.mark.parametrize("stored", ["2", "'no'", "1.5"])
    def test_out_of_domain_booleans_raise(self, stored):
        schema = DatabaseSchema([
            RelationSchema.build("t", ["k", "b"], types={"k": INTEGER, "b": BOOLEAN})
        ])
        db = Database(schema, backend=SQLiteBackend())
        db.insert_many("t", [[1, True], [2, False]])
        db.backend.connection.execute(f"INSERT INTO t VALUES (3, {stored})")
        errors = []
        for read in (
            db.copy, lambda: db.copy(backend=SQLiteBackend()),
            lambda: list(db.backend.rows("t")), lambda: db.table("t"),
            lambda: list(db.scan("t", ("b",))),
        ):
            with pytest.raises(TypingError) as caught:
                read()
            errors.append(str(caught.value))
        assert len(set(errors)) == 1 and "BOOLEAN" in errors[0]

    def test_boolean_and_null_rows_survive_hydration(self):
        schema = DatabaseSchema([
            RelationSchema.build("t", ["k", "b"], types={"k": INTEGER, "b": BOOLEAN})
        ])
        db = Database(schema, backend=SQLiteBackend())
        db.insert_many("t", [[1, True], [2, False], [3, NULL], [NULL, True]])
        cold = _contents(db)
        db.table("t")  # hydrate the mirror
        assert _contents(db) == cold
        assert [type(row[1]) for row in db.backend.rows("t")][:2] == [bool, bool]
        assert _contents(db.copy()) == cold


class TestWriteThrough:
    @pytest.fixture
    def db(self):
        schema = DatabaseSchema(
            [RelationSchema.build("t", ["k", "v"], types={"k": INTEGER})]
        )
        db = Database(schema, backend=SQLiteBackend())
        db.table("t")  # hydrated, so writes go through the mirror
        return db

    def _stored(self, db):
        return db.backend.connection.execute(
            'SELECT k, v FROM "t" ORDER BY rowid'
        ).fetchall()

    def test_mirror_insert_many_is_one_write(self, db):
        version = db.backend._versions["t"]
        db.insert_many("t", [[1, "a"], [2, "b"], {"k": 3}])
        assert db.backend._versions["t"] == version + 1
        assert self._stored(db) == [(1, "a"), (2, "b"), (3, None)]
        assert db.count_distinct("t", ("k",)) == 3

    def test_mirror_insert_many_keeps_the_rows_before_a_typing_error(self, db):
        with pytest.raises(TypingError):
            db.insert_many("t", [[1, "a"], ["bad", "b"], [3, "c"]])
        assert self._stored(db) == [(1, "a")]
        assert [row.values for row in db.table("t")] == [(1, "a")]

    def test_replace_relation_does_not_hydrate(self):
        db = build_paper_database(backend=SQLiteBackend())
        narrowed = db.schema.relation("Person").without_attributes(["state"])
        assert db.replace_relation(narrowed) is None
        assert "Person" not in db.backend._mirrors
        assert db.backend.row_count("Person") == 22


def _foreign(*statements):
    """A foreign store: raw DDL/DML on a fresh connection, then opened."""
    conn = sqlite3.connect(":memory:", isolation_level=None)
    for statement in statements:
        conn.execute(statement)
    return open_sqlite(conn)


def _scanned(db, relation, attrs):
    scan = db.scan(relation, attrs)
    project = scan.projector(attrs)
    return [project(t) for t in scan]


class TestScan:
    """The projected cursor behind RHS evidence, the NEI fill and Restruct:
    it reads the store with the mirror's one decoder and builds no mirror."""

    def test_numeric_foreign_column_reads_as_real(self):
        db = _foreign(
            "CREATE TABLE t (k INTEGER, n NUMERIC, d DEC(9, 2), b BOOLEAN)",
            "INSERT INTO t VALUES (1, 3, 4, 1), (2, 2.5, NULL, 0), (3, NULL, 7, NULL)",
        )
        got = _scanned(db, "t", ("n", "d", "b"))
        assert not db.backend._mirrors
        assert got == [(3.0, 4.0, True), (2.5, NULL, False), (NULL, 7.0, NULL)]
        assert [type(t[0]) for t in got] == [float, float, type(NULL)]
        assert got == [row.project(("n", "d", "b")) for row in db.table("t")]
        assert [r[1] for r in db.backend.rows("t")] == [3.0, 2.5, NULL]

    @pytest.mark.parametrize("column, stored", [
        ("k INTEGER", "'x'"), ("k DATE", "'not-a-date'"), ("k BOOLEAN", "2"),
        ("k BOOLEAN", "'yes'"), ("k", "2.5"),   # untyped: TEXT, holding a real
    ])
    def test_every_read_raises_what_validation_raises(self, column, stored):
        db = _foreign(
            f"CREATE TABLE t ({column}, v TEXT)",
            f"INSERT INTO t VALUES ({stored}, 'a')",
        )
        messages = set()
        for read in (
            lambda: list(db.backend.rows("t")),
            lambda: list(db.scan("t", ("k",))),
            lambda: db.table("t"),
        ):
            with pytest.raises(TypingError) as caught:
                read()
            messages.add(str(caught.value))
        assert len(messages) == 1
        # a scan that leaves the bad column out reads the rest
        assert _scanned(db, "t", ("v",)) == [("a",)]

    def test_without_rowid_tables_scan_in_rows_order(self):
        db = _foreign(
            "CREATE TABLE w (k INTEGER PRIMARY KEY, v TEXT) WITHOUT ROWID",
            "INSERT INTO w VALUES (2, 'b'), (1, 'a'), (3, NULL)",
        )
        assert _scanned(db, "w", ("v",)) == [("a",), ("b",), (NULL,)]
        scan = db.scan("w", ("k", "v"))
        tuples = list(scan)
        assert tuples == list(db.backend.rows("w")) == [(1, "a"), (2, "b"), (3, NULL)]
        assert scan.rows(tuples[1:]) == list(db.table("w"))[1:]

    def test_rows_need_a_whole_row_scan(self):
        db = Database(
            DatabaseSchema([RelationSchema.build(
                "t", ["k", "v", "b"], types={"k": INTEGER, "b": BOOLEAN}
            )]),
            backend=SQLiteBackend(),
        )
        db.backend.insert_many("t", [[i, f"v{i}", i % 2 == 0] for i in range(50)])
        narrow = db.scan("t", ("k",))
        assert narrow.layout == ("k",)
        with pytest.raises(ValueError, match="whole-row"):
            narrow.rows(list(narrow)[:1])
        whole = db.scan("t", ("k", "v", "b"))
        tuples = list(whole)
        picked = [tuples[40], tuples[3], tuples[40]]
        assert not db.backend._mirrors
        assert whole.rows(picked) == [db.table("t")[i] for i in (40, 3, 40)]
        assert [type(r["b"]) for r in whole.rows(picked)] == [bool, bool, bool]

    def test_raw_sql_writes_on_the_connection_are_seen(self):
        schema = DatabaseSchema([
            RelationSchema.build("t", ["k", "r"], types={"k": INTEGER, "r": REAL})
        ])
        db = Database(schema, backend=SQLiteBackend())
        db.insert_many("t", [[1, 1.5], [2, NULL]])
        assert _scanned(db, "t", ("k", "r")) == [(1, 1.5), (2, NULL)]
        conn = db.backend.connection
        conn.execute("INSERT INTO t VALUES (3, 4)")           # REAL affinity: 4.0
        conn.execute("UPDATE t SET r = 2.5 WHERE k = 2")
        got = _scanned(db, "t", ("k", "r"))
        assert got == [(1, 1.5), (2, 2.5), (3, 4.0)]
        assert got == [row.project(("k", "r")) for row in db.table("t")]
        # the as-is test is redone after a raw write, so a bad value raises
        conn.execute("INSERT INTO t VALUES ('bad', 1.0)")
        with pytest.raises(TypingError):
            _scanned(db, "t", ("k",))

    def test_a_pipeline_run_hydrates_no_stored_relation(self, monkeypatch):
        from repro.workloads.scenario import ScenarioConfig, build_scenario

        generated = build_scenario(ScenarioConfig(
            seed=900, n_entities=7, n_one_to_many=6, merges=2, parent_rows=100,
        ))
        source = generated.database
        db = Database(source.schema.copy(), backend=SQLiteBackend())
        for name in source.schema.relation_names:
            db.insert_many(name, list(source.backend.rows(name)))
        hydrated = []
        table = SQLiteBackend.table

        def spy(backend, name):
            hydrated.append(name)
            return table(backend, name)

        monkeypatch.setattr(SQLiteBackend, "table", spy)
        result = DBREPipeline(db, generated.expert).run(corpus=generated.corpus)
        assert result.rhs_result.outcomes and result.restruct_result.added
        assert hydrated == []
        assert not db.backend._mirrors
        # only relations the run created hold a (write-through) mirror
        working = result.restruct_result.database.backend
        assert set(working._mirrors) <= (
            {a.name for a in result.restruct_result.added}
            | {r.name for r in result.ind_result.new_relations}
        )
