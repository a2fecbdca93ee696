"""The database-script loader: CREATE TABLE and INSERT, nothing else."""

import pytest

from repro.exceptions import SQLExecutionError, UnknownRelationError
from repro.relational import NULL, Database
from repro.sql import load_sql_script

SCRIPT = """
CREATE TABLE city (cid INT PRIMARY KEY, cname VARCHAR(20));
INSERT INTO city VALUES (1, 'Lyon'), (2, 'Paris'), (3, 'Nice');
CREATE TABLE person (pid INT PRIMARY KEY, pname VARCHAR(20),
                     cid INT, age INT);
INSERT INTO person VALUES
    (10, 'alice', 1, 30), (11, 'bob', 1, 40),
    (12, 'carol', 2, 35), (13, 'dave', NULL, 50);
"""


@pytest.fixture
def db():
    database = Database()
    load_sql_script(database, SCRIPT)
    return database


def loaded(text):
    database = Database()
    load_sql_script(database, text)
    return database


class TestCreateTable:
    def test_create_builds_schema(self, db):
        rel = db.schema.relation("person")
        assert rel.attribute_names == ("pid", "pname", "cid", "age")
        assert rel.is_key(["pid"])
        assert not rel.attribute("pid").nullable and rel.attribute("age").nullable

    def test_create_table_level_unique(self):
        database = loaded("CREATE TABLE h (no INT, d DATE, UNIQUE (no, d))")
        assert database.schema.relation("h").is_key(["no", "d"])

    def test_foreign_key_is_parsed_and_skipped(self):
        database = loaded(
            "CREATE TABLE r (a INT PRIMARY KEY);"
            "CREATE TABLE s (b INT NOT NULL, c INT,"
            " FOREIGN KEY (b) REFERENCES r (a), FOREIGN KEY (c) REFERENCES r (a));"
            "INSERT INTO s VALUES (1, 2);"
        )
        s = database.schema.relation("s")
        assert s.uniques == () and not s.attribute("b").nullable
        assert len(database.table("s")) == 1


class TestInsert:
    def test_insert_null_by_keyword(self, db):
        assert db.table("person")[3]["cid"] is NULL

    def test_boolean_column_round_trip(self):
        database = loaded(
            "CREATE TABLE flags (k INT PRIMARY KEY, active BOOLEAN);"
            "INSERT INTO flags VALUES (1, TRUE), (2, FALSE), (3, NULL);"
        )
        rows = list(database.backend.rows("flags"))
        assert rows == [(1, True), (2, False), (3, NULL)]

    def test_named_columns_fill_the_rest_with_null(self):
        database = loaded(
            "CREATE TABLE t (a INT, b INT, c INT); INSERT INTO t (c, a) VALUES (3, 1);"
        )
        assert list(database.backend.rows("t")) == [(1, NULL, 3)]

    def test_named_arity_mismatch(self):
        with pytest.raises(SQLExecutionError, match="arity mismatch on t"):
            loaded("CREATE TABLE t (a INT, b INT); INSERT INTO t (a, b) VALUES (1);")

    def test_insert_into_unknown_table(self):
        with pytest.raises(UnknownRelationError):
            loaded("INSERT INTO ghost VALUES (1);")


class TestRefusals:
    @pytest.mark.parametrize(
        "statement, kind",
        [
            ("SELECT a FROM t", "SELECT"),
            ("SELECT a FROM t UNION SELECT a FROM t", "SELECT"),
            ("SELECT a FROM t INTERSECT SELECT a FROM t", "SELECT"),
            ("UPDATE t SET a = 2", "UPDATE"),
            ("DELETE FROM t", "DELETE"),
            ("DROP TABLE t", "DROP"),
        ],
    )
    def test_other_statements_are_refused_before_loading(self, statement, kind):
        database = Database()
        text = f"CREATE TABLE t (a INT); INSERT INTO t VALUES (1); {statement};"
        with pytest.raises(SQLExecutionError) as raised:
            load_sql_script(database, text)
        assert str(raised.value) == (
            "only CREATE TABLE and INSERT are loaded from a database script; "
            f"found {kind} (statement 3)"
        )
        assert "t" not in database.schema
