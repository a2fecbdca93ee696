"""Printing round-trips: AST -> ``str()`` -> the same AST."""

import pytest

from repro.sql.parser import parse_sql

ROUND_TRIP_CASES = [
    "SELECT a, b FROM R",
    "SELECT DISTINCT r.a FROM R r, S s WHERE r.x = s.y AND r.z = 1",
    "SELECT COUNT(DISTINCT a) FROM R",
    "SELECT a FROM R WHERE a IN (SELECT b FROM S)",
    "SELECT a FROM R WHERE EXISTS (SELECT * FROM S WHERE S.x = R.a)",
    "SELECT a FROM R INTERSECT SELECT b FROM S",
    "SELECT a FROM R r INNER JOIN S s ON r.x = s.y ORDER BY a DESC",
    "CREATE TABLE Person (id INTEGER PRIMARY KEY, name TEXT NOT NULL)",
    "INSERT INTO R (a, b) VALUES (1, 'x'), (2, NULL)",
    "DROP TABLE R",
    "SELECT a FROM R WHERE b IS NOT NULL",
    "SELECT project-name FROM Assignment WHERE proj = 'P1'",
    "CREATE TABLE S (a INT, b INT, FOREIGN KEY (a, b) REFERENCES R (x, y))",
]


@pytest.mark.parametrize("sql", ROUND_TRIP_CASES)
def test_round_trip(sql):
    first = parse_sql(sql)
    rendered = str(first)
    second = parse_sql(rendered)
    assert second == first and str(second) == rendered


def test_string_escaping_round_trip():
    stmt = parse_sql("INSERT INTO R VALUES ('it''s')")
    rendered = str(stmt)
    assert parse_sql(rendered).rows == (("it's",),)
