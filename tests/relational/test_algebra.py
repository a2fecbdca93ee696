"""The paper's query primitives: count distinct, join counts, FD checks."""

import pytest

from repro.backends import create_backend
from repro.exceptions import ArityError
from repro.relational.algebra import (
    count_distinct,
    distinct_values,
    equijoin_match_count,
    fd_violation_pairs,
    functional_maps,
    group_by,
    lhs_grouping,
    missing_values,
    natural_intersection,
    project,
    select_equal,
    values_subset,
)
from repro.dependencies.fd import FunctionalDependency
from repro.dependencies.inference import satisfaction_ratio, violation_witnesses
from repro.relational import Database, DatabaseSchema
from repro.relational.domain import INTEGER, NULL
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from tests.property.test_property_algebra import (
    assert_same_pairs,
    naive_ratio,
    naive_violation_pairs,
)


@pytest.fixture
def orders():
    schema = RelationSchema.build(
        "orders",
        ["oid", "cust", "city", "amount"],
        key=["oid"],
        types={"oid": INTEGER, "cust": INTEGER, "amount": INTEGER},
    )
    t = Table(schema)
    t.insert_many(
        [
            [1, 10, "Lyon", 5],
            [2, 10, "Lyon", 7],
            [3, 11, "Paris", 5],
            [4, NULL, "Paris", 5],
            [5, 12, NULL, 9],
        ]
    )
    return t


@pytest.fixture
def customers():
    schema = RelationSchema.build(
        "customers", ["cid", "name"], key=["cid"], types={"cid": INTEGER}
    )
    t = Table(schema)
    t.insert_many([[10, "a"], [11, "b"], [13, "c"]])
    return t


class TestCountDistinct:
    def test_nulls_excluded(self, orders):
        # ||orders[cust]|| skips the NULL row: {10, 11, 12}
        assert count_distinct(orders, ("cust",)) == 3

    def test_multi_attribute(self, orders):
        # (cust, city) pairs with no NULL: (10,Lyon)x2, (11,Paris)
        assert count_distinct(orders, ("cust", "city")) == 2

    def test_projection_keeps_duplicates(self, orders):
        assert len(project(orders, ("city",))) == 5

    def test_distinct_values_content(self, orders):
        assert distinct_values(orders, ("city",)) == {("Lyon",), ("Paris",)}


class TestJoinCounts:
    def test_match_count_is_intersection_cardinality(self, orders, customers):
        # shared cust values: {10, 11}
        assert equijoin_match_count(orders, ("cust",), customers, ("cid",)) == 2

    def test_natural_intersection_values(self, orders, customers):
        assert natural_intersection(orders, ("cust",), customers, ("cid",)) == {
            (10,), (11,),
        }

    def test_arity_mismatch_raises(self, orders, customers):
        with pytest.raises(ArityError):
            equijoin_match_count(orders, ("cust", "city"), customers, ("cid",))

    def test_missing_values_witnesses(self, orders, customers):
        assert missing_values(orders, ("cust",), customers, ("cid",)) == {(12,)}

    def test_values_subset_ignores_null_lhs(self, orders, customers):
        # {10, 11, 12} is not within {10, 11, 13}
        assert not values_subset(orders, ("cust",), customers, ("cid",))
        # but {10, 11} (customers' view of used ids) fails the other way too
        assert not values_subset(customers, ("cid",), orders, ("cust",))


class TestSelection:
    def test_select_equal(self, orders):
        assert len(select_equal(orders, "cust", 10)) == 2

    def test_select_null_matches_nothing(self, orders):
        assert select_equal(orders, "cust", NULL) == []


class TestFunctionalMaps:
    def test_fd_holds(self, orders):
        # cust -> city holds on non-NULL groups (10->Lyon, 11->Paris, 12->NULL)
        assert functional_maps(orders, ("cust",), ("city",))

    def test_fd_fails(self, orders):
        assert not functional_maps(orders, ("city",), ("amount",))

    def test_null_lhs_rows_skipped(self, orders):
        # the NULL-cust row maps to Paris; it must not clash with anything
        assert functional_maps(orders, ("cust",), ("city",))

    def test_null_rhs_values_agree_with_themselves(self):
        schema = RelationSchema.build("r", ["a", "b"], types={"a": INTEGER})
        t = Table(schema)
        t.insert_many([[1, NULL], [1, NULL]])
        assert functional_maps(t, ("a",), ("b",))

    def test_null_vs_value_rhs_conflict(self):
        schema = RelationSchema.build("r", ["a", "b"], types={"a": INTEGER})
        t = Table(schema)
        t.insert_many([[1, NULL], [1, "x"]])
        assert not functional_maps(t, ("a",), ("b",))

    def test_violation_pairs_reports_witnesses(self, orders):
        pairs = fd_violation_pairs(orders, ("city",), ("amount",))
        assert pairs
        left, right = pairs[0]
        assert left["city"] == right["city"]
        assert left["amount"] != right["amount"]

    def test_violation_pairs_respects_limit(self):
        schema = RelationSchema.build("r", ["a", "b"], types={"a": INTEGER, "b": INTEGER})
        t = Table(schema)
        t.insert_many([[1, i] for i in range(10)])
        assert len(fd_violation_pairs(t, ("a",), ("b",), limit=3)) == 3


class TestGroupBy:
    def test_groups_exclude_null_keys(self, orders):
        groups = group_by(orders, ("cust",))
        assert set(groups) == {(10,), (11,), (12,)}
        assert len(groups[(10,)]) == 2


# ----------------------------------------------------------------------
# RHS evidence: one LHS grouping per scan, never stale
# ----------------------------------------------------------------------

#: (lhs, rhs) pairs: NULL-bearing LHS, multi-attribute LHS and RHS
EVIDENCE_FDS = [
    (("a",), ("b",)),
    (("a",), ("b", "c")),
    (("a", "b"), ("c",)),
    (("c",), ("a",)),
]


def abc_schema(name="r"):
    return RelationSchema.build(
        name, ["a", "b", "c"], types={"a": INTEGER, "b": INTEGER, "c": INTEGER}
    )


def assert_evidence_matches_oracle(table, limit=3, scan=None):
    """Alternate ratio and witness calls over every pair; equal the oracles.

    *scan*, given, returns a fresh whole-row scan to build each grouping
    from instead of *table*.
    """
    for lhs, rhs in EVIDENCE_FDS:
        fd = FunctionalDependency(table.name, lhs, rhs)
        source = table if scan is None else lhs_grouping(scan(), lhs)
        assert satisfaction_ratio(source, fd) == naive_ratio(table, lhs, rhs)
        got = violation_witnesses(source, fd, limit=limit)
        want = naive_violation_pairs(table, lhs, rhs, limit)
        assert_same_pairs(got, want)


SEED_ROWS = [
    [1, 1, 1], [1, 2, 1], [NULL, 5, 5], [2, 1, 1], [2, 1, 2],
    [3, NULL, 3], [1, 1, 1], [NULL, NULL, 1], [3, 4, 3],
]


class TestEvidenceMemo:
    def test_alternating_with_every_mutator(self):
        t = Table(abc_schema(), SEED_ROWS)
        assert_evidence_matches_oracle(t)
        t.insert([2, 1, 1])
        assert_evidence_matches_oracle(t)
        t.insert([1, 9, 9])
        assert_evidence_matches_oracle(t, limit=1)
        assert t.delete_where(lambda row: row["b"] == 1) > 0
        assert_evidence_matches_oracle(t)
        t.replace_rows([[4, 1, 1], [4, 2, 2], [NULL, 1, 1], [5, 1, 1]])
        assert_evidence_matches_oracle(t)
        rehomed = t.with_schema(abc_schema())
        assert_evidence_matches_oracle(rehomed)
        rehomed.insert([5, 2, 2])
        assert_evidence_matches_oracle(rehomed)
        assert_evidence_matches_oracle(t)

    @pytest.mark.parametrize("write", [
        lambda t: t.insert([1, 9, 9]),
        lambda t: t.delete_where(lambda row: row["b"] == 2),
        lambda t: t.replace_rows([[1, 1, 1], [1, 3, 3]]),
    ], ids=["insert", "delete_where", "replace_rows"])
    def test_a_write_between_two_calls_on_one_lhs_is_seen(self, write):
        t = Table(abc_schema(), [[1, 1, 1], [1, 2, 2], [2, 1, 1]])
        fd = FunctionalDependency("r", ("a",), ("b",))
        before = satisfaction_ratio(t, fd), violation_witnesses(t, fd, limit=3)
        write(t)
        after = satisfaction_ratio(t, fd), violation_witnesses(t, fd, limit=3)
        assert after != before
        assert after[0] == naive_ratio(t, ("a",), ("b",))
        assert after[1] == naive_violation_pairs(t, ("a",), ("b",), 3)

    def test_a_grouping_answers_only_its_own_lhs(self):
        t = Table(abc_schema(), SEED_ROWS)
        grouping = lhs_grouping(t, ("a",))
        fd = FunctionalDependency("r", ("a", "b"), ("c",))
        with pytest.raises(ValueError):
            satisfaction_ratio(grouping, fd)
        with pytest.raises(ValueError):
            violation_witnesses(grouping, fd)

    def test_empty_and_all_null_lhs_tables(self):
        for rows in ([], [[NULL, 1, 1], [NULL, 2, 2]]):
            t = Table(abc_schema(), rows)
            fd = FunctionalDependency("r", ("a",), ("b",))
            assert satisfaction_ratio(t, fd) == 1.0
            assert violation_witnesses(t, fd, limit=3) == []
            assert_evidence_matches_oracle(t)

    def test_limit_zero_still_shows_the_first_pair(self):
        t = Table(abc_schema(), SEED_ROWS)
        assert_evidence_matches_oracle(t, limit=0)
        assert len(fd_violation_pairs(t, ("a",), ("b",), limit=0)) == 1


@pytest.mark.parametrize("kind", ["sqlite"])
class TestEvidenceOnMirrors:
    """The kernel runs on the hydrated mirrors of the stored backend, and
    on its scans, which read the store the mirrors write through to."""

    def database(self, kind):
        backend = create_backend(kind)
        db = Database(DatabaseSchema([abc_schema()]), backend=backend)
        db.insert_many("r", SEED_ROWS)
        return db

    def test_write_through_inserts(self, kind):
        db = self.database(kind)
        mirror = db.table("r")
        fd = FunctionalDependency("r", ("a",), ("b",))
        before = satisfaction_ratio(mirror, fd)
        db.insert("r", [2, 7, 7])
        assert db.table("r") is mirror
        assert satisfaction_ratio(mirror, fd) != before
        assert_evidence_matches_oracle(mirror)
        mirror.insert([3, 8, 8])
        assert_evidence_matches_oracle(db.table("r"))
        mirror.delete_where(lambda row: row["a"] == 1)
        assert_evidence_matches_oracle(db.table("r"))
        assert_evidence_matches_oracle(
            db.table("r"), scan=lambda: db.scan("r", ("a", "b", "c"))
        )
        assert list(db.backend.rows("r")) == [row.values for row in db.table("r")]

    def test_drop_and_recreate(self, kind):
        db = self.database(kind)
        assert_evidence_matches_oracle(db.table("r"))
        db.drop_relation("r")
        db.create_relation(abc_schema())
        db.insert_many("r", [[1, 1, 1], [1, 2, 2], [2, 3, 3]])
        mirror = db.table("r")
        assert_evidence_matches_oracle(mirror)
        assert_evidence_matches_oracle(mirror, scan=lambda: db.scan("r", ("a", "b", "c")))
