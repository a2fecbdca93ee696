"""BETWEEN and LIKE: parsing, round trips, extraction."""

import pytest

from repro.exceptions import SQLParseError
from repro.sql import ast
from repro.sql.parser import parse_sql


class TestBetween:
    def test_parse_and_round_trip(self):
        stmt = parse_sql("SELECT a FROM r WHERE a BETWEEN 1 AND 5")
        assert isinstance(stmt.where, ast.Between)
        assert str(parse_sql(str(stmt))) == str(stmt)

    def test_between_in_conjunction(self):
        # the AND inside BETWEEN must not swallow the outer conjunction
        stmt = parse_sql("SELECT eid FROM emp WHERE pay BETWEEN 100 AND 400 AND eid > 2")
        assert isinstance(stmt.where, ast.And)
        between, comparison = stmt.where.operands
        assert isinstance(between, ast.Between) and isinstance(comparison, ast.Comparison)


class TestLike:
    def test_parse_requires_string(self):
        with pytest.raises(SQLParseError):
            parse_sql("SELECT a FROM r WHERE a LIKE b")

    def test_round_trip_with_quote_escape(self):
        stmt = parse_sql("SELECT a FROM r WHERE a LIKE 'it''s%'")
        again = parse_sql(str(stmt))
        assert again.where.pattern == "it's%"


class TestExtractionRobustness:
    def test_joins_next_to_like_between_still_found(self):
        from repro.programs import EquiJoinExtractor
        from repro.relational import DatabaseSchema, RelationSchema

        schema = DatabaseSchema(
            [
                RelationSchema.build("R", ["a", "b"], key=["a"]),
                RelationSchema.build("S", ["x", "y"], key=["x"]),
            ]
        )
        joins = EquiJoinExtractor(schema).extract_from_sql(
            "SELECT 1 FROM R, S WHERE R.b = S.x AND S.y LIKE 'A%' "
            "AND R.a BETWEEN 1 AND 9"
        )
        assert len(joins) == 1
