"""UNION / UNION ALL: parsing, round trips, extraction robustness."""

import pytest

from repro.exceptions import SQLParseError
from repro.sql import ast
from repro.sql.parser import parse_sql


class TestParsing:
    def test_union(self):
        stmt = parse_sql("SELECT x FROM a UNION SELECT y FROM b")
        assert isinstance(stmt, ast.Union)
        assert not stmt.all
        assert len(stmt.queries) == 2

    def test_union_all(self):
        stmt = parse_sql("SELECT x FROM a UNION ALL SELECT y FROM b")
        assert stmt.all

    def test_three_way(self):
        stmt = parse_sql(
            "SELECT x FROM a UNION SELECT y FROM b UNION SELECT x FROM a"
        )
        assert len(stmt.queries) == 3

    def test_mixing_set_operators_rejected(self):
        with pytest.raises(SQLParseError):
            parse_sql(
                "SELECT x FROM a UNION SELECT y FROM b INTERSECT SELECT x FROM a"
            )
        with pytest.raises(SQLParseError):
            parse_sql(
                "SELECT x FROM a INTERSECT SELECT y FROM b UNION SELECT x FROM a"
            )

    def test_round_trip(self):
        for sql in (
            "SELECT x FROM a UNION SELECT y FROM b",
            "SELECT x FROM a UNION ALL SELECT y FROM b",
        ):
            stmt = parse_sql(sql)
            assert str(parse_sql(str(stmt))) == str(stmt)


class TestExtraction:
    def test_joins_inside_union_branches_found(self):
        from repro.programs import EquiJoinExtractor
        from repro.programs.equijoin import EquiJoin
        from repro.relational import DatabaseSchema, RelationSchema

        schema = DatabaseSchema(
            [
                RelationSchema.build("R", ["a", "b"], key=["a"]),
                RelationSchema.build("S", ["x", "y"], key=["x"]),
                RelationSchema.build("T", ["p", "q"], key=["p"]),
            ]
        )
        joins = EquiJoinExtractor(schema).extract_from_sql(
            "SELECT b FROM R, S WHERE R.b = S.x "
            "UNION SELECT q FROM T WHERE q IN (SELECT y FROM S)"
        )
        assert EquiJoin("R", ("b",), "S", ("x",)) in joins
        assert EquiJoin("S", ("y",), "T", ("q",)) in joins

    def test_union_itself_is_not_a_join(self):
        from repro.programs import EquiJoinExtractor
        from repro.relational import DatabaseSchema, RelationSchema

        schema = DatabaseSchema(
            [
                RelationSchema.build("R", ["a"], key=["a"]),
                RelationSchema.build("S", ["x"], key=["x"]),
            ]
        )
        joins = EquiJoinExtractor(schema).extract_from_sql(
            "SELECT a FROM R UNION SELECT x FROM S"
        )
        assert joins == []
