"""Alias scoping: shadowing between outer queries and subqueries."""

import pytest

from repro.programs import EquiJoinExtractor
from repro.programs.equijoin import EquiJoin
from repro.relational import DatabaseSchema, RelationSchema


class TestExtractorScoping:
    @pytest.fixture
    def extractor(self):
        return EquiJoinExtractor(
            DatabaseSchema(
                [
                    RelationSchema.build("outerr", ["k", "v"], key=["k"]),
                    RelationSchema.build("innerr", ["k", "w"], key=["k"]),
                ]
            )
        )

    def test_shadowed_alias_resolves_to_inner_relation(self, extractor):
        joins = extractor.extract_from_sql(
            "SELECT t.v FROM outerr t WHERE t.k IN "
            "(SELECT t.k FROM innerr t)"
        )
        # outer t.k is outerr.k; the subquery projection t.k is innerr.k
        assert joins == [EquiJoin("innerr", ("k",), "outerr", ("k",))]

    def test_correlated_equality_across_scopes(self, extractor):
        joins = extractor.extract_from_sql(
            "SELECT o.v FROM outerr o WHERE EXISTS "
            "(SELECT * FROM innerr i WHERE i.k = o.k)"
        )
        assert joins == [EquiJoin("innerr", ("k",), "outerr", ("k",))]

    def test_three_way_intersect_pairs_consecutively(self, extractor):
        joins = extractor.extract_from_sql(
            "SELECT k FROM outerr INTERSECT SELECT k FROM innerr "
            "INTERSECT SELECT w FROM innerr"
        )
        assert EquiJoin("outerr", ("k",), "innerr", ("k",)) in joins
        assert EquiJoin("innerr", ("k",), "innerr", ("w",)) in joins
