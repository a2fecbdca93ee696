"""The dialect extensions: GROUP BY / HAVING, UPDATE, DELETE."""

import pytest

from repro.exceptions import SQLParseError
from repro.sql import ast
from repro.sql.parser import parse_sql


class TestGroupByParsing:
    def test_group_by_columns(self):
        stmt = parse_sql("SELECT store, COUNT(*) FROM sale GROUP BY store")
        assert [c.name for c in stmt.group_by] == ["store"]
        assert stmt.having is None

    def test_having_with_aggregate(self):
        stmt = parse_sql(
            "SELECT store FROM sale GROUP BY store HAVING COUNT(*) > 1"
        )
        assert isinstance(stmt.having, ast.Comparison)
        assert isinstance(stmt.having.left, ast.Aggregate)

    def test_round_trip(self):
        sql = "SELECT store, SUM(amount) FROM sale GROUP BY store HAVING COUNT(*) >= 2 ORDER BY store"
        stmt = parse_sql(sql)
        assert str(parse_sql(str(stmt))) == str(stmt)


class TestUpdate:
    def test_parse(self):
        stmt = parse_sql("UPDATE sale SET amount = 0, store = 99 WHERE tid = 1")
        assert stmt.table == "sale"
        assert [a.column for a in stmt.assignments] == ["amount", "store"]
        assert stmt.where is not None

    def test_set_requires_literals(self):
        with pytest.raises(SQLParseError):
            parse_sql("UPDATE sale SET amount = other_col")


class TestDelete:
    def test_parse(self):
        stmt = parse_sql("DELETE FROM sale WHERE store = 10")
        assert stmt.table == "sale"


class TestExtractionFromDML:
    @pytest.fixture
    def extractor(self):
        from repro.programs import EquiJoinExtractor
        from repro.relational import DatabaseSchema, RelationSchema

        schema = DatabaseSchema(
            [
                RelationSchema.build("sale", ["tid", "store"], key=["tid"]),
                RelationSchema.build("store", ["sid", "name"], key=["sid"]),
            ]
        )
        return EquiJoinExtractor(schema)

    def test_update_in_subquery_join(self, extractor):
        joins = extractor.extract_from_sql(
            "UPDATE sale SET tid = 0 WHERE store IN (SELECT sid FROM store)"
        )
        assert len(joins) == 1
        assert joins[0].involves("sale") and joins[0].involves("store")

    def test_delete_exists_join(self, extractor):
        joins = extractor.extract_from_sql(
            "DELETE FROM sale WHERE EXISTS "
            "(SELECT * FROM store s WHERE s.sid = sale.store)"
        )
        assert len(joins) == 1

    def test_negated_forms_are_not_joins(self, extractor):
        assert extractor.extract_from_sql(
            "DELETE FROM sale WHERE store NOT IN (SELECT sid FROM store)"
        ) == []

    def test_embedded_update_kept(self):
        from repro.programs.corpus import ApplicationProgram
        from repro.programs.embedded import extract_sql_units

        program = ApplicationProgram(
            "fix.pc", "c",
            "void f(void){ EXEC SQL UPDATE sale SET tid = :v "
            "WHERE store IN (SELECT sid FROM store); }",
        )
        units = extract_sql_units(program)
        assert len(units) == 1
        assert units[0].text.upper().startswith("UPDATE")
