"""Property-based tests of the relational algebra under NULLs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dependencies.fd import FunctionalDependency
from repro.dependencies.inference import satisfaction_ratio
from repro.relational.algebra import (
    count_distinct,
    distinct_values,
    equijoin_match_count,
    fd_violation_pairs,
    functional_maps,
    group_by,
    values_subset,
)
from repro.relational.domain import INTEGER, NULL, is_null
from repro.relational.schema import RelationSchema
from repro.relational.table import Table

values = st.one_of(st.integers(0, 6), st.none())
rows2 = st.lists(st.tuples(values, values), max_size=20)
rows1 = st.lists(st.tuples(values), max_size=20)


def table2(rows, name="r"):
    schema = RelationSchema.build(
        name, ["a", "b"], types={"a": INTEGER, "b": INTEGER}
    )
    t = Table(schema)
    for a, b in rows:
        t.insert([NULL if a is None else a, NULL if b is None else b])
    return t


def table1(rows, name="s", attr="x"):
    schema = RelationSchema.build(name, [attr], types={attr: INTEGER})
    t = Table(schema)
    for (v,) in rows:
        t.insert([NULL if v is None else v])
    return t


class TestCountDistinct:
    @given(rows2)
    def test_count_matches_python_set(self, rows):
        t = table2(rows)
        expected = {(a,) for a, _b in rows if a is not None}
        assert count_distinct(t, ("a",)) == len(expected)
        assert distinct_values(t, ("a",)) == expected

    @given(rows2)
    def test_multi_attr_count_at_most_product(self, rows):
        t = table2(rows)
        pairs = count_distinct(t, ("a", "b"))
        assert pairs <= len(rows)


class TestJoinsAndInclusion:
    @given(rows1, rows1)
    def test_join_count_is_symmetric(self, left, right):
        lt = table1(left, "l", "x")
        rt = table1(right, "r", "y")
        assert equijoin_match_count(lt, ("x",), rt, ("y",)) == (
            equijoin_match_count(rt, ("y",), lt, ("x",))
        )

    @given(rows1, rows1)
    def test_join_count_bounded_by_sides(self, left, right):
        lt = table1(left, "l", "x")
        rt = table1(right, "r", "y")
        n = equijoin_match_count(lt, ("x",), rt, ("y",))
        assert n <= count_distinct(lt, ("x",))
        assert n <= count_distinct(rt, ("y",))

    @given(rows1, rows1)
    def test_inclusion_iff_join_saturates_left(self, left, right):
        """The IND-Discovery criterion: N_kl = N_k iff left ⊆ right."""
        lt = table1(left, "l", "x")
        rt = table1(right, "r", "y")
        n_kl = equijoin_match_count(lt, ("x",), rt, ("y",))
        n_k = count_distinct(lt, ("x",))
        assert (n_kl == n_k) == values_subset(lt, ("x",), rt, ("y",))

    @given(rows1)
    def test_inclusion_is_reflexive(self, rows):
        t = table1(rows)
        assert values_subset(t, ("x",), t, ("x",))


class TestFunctionalMaps:
    @given(rows2)
    def test_key_column_determines_everything(self, rows):
        # deduplicate on a first, so a acts as a key
        seen = {}
        for a, b in rows:
            if a is not None and a not in seen:
                seen[a] = b
        t = table2([(a, b) for a, b in seen.items()])
        assert functional_maps(t, ("a",), ("b",))

    @given(rows2)
    @settings(max_examples=60)
    def test_fd_check_matches_bruteforce(self, rows):
        t = table2(rows)
        groups = {}
        violated = False
        for a, b in rows:
            if a is None:
                continue
            if a in groups and groups[a] != b:
                violated = True
            groups.setdefault(a, b)
        assert functional_maps(t, ("a",), ("b",)) == (not violated)

    @given(rows2)
    def test_reflexive_fd_always_holds(self, rows):
        t = table2(rows)
        assert functional_maps(t, ("a",), ("a",))


# ----------------------------------------------------------------------
# the positional kernels against a reference that resolves every value
# by name (Row.project) and tests NULL one value at a time (is_null)
# ----------------------------------------------------------------------

cell = st.one_of(st.integers(0, 3), st.none(), st.just(NULL))
rows3 = st.lists(st.tuples(cell, cell, cell), max_size=30)
#: composite lists in and out of schema order, so a position mix-up fails
attr_lists = st.sampled_from(
    [("a",), ("c",), ("a", "b"), ("b", "a"), ("c", "a"), ("c", "b", "a"), ("b", "c")]
)


def table3(rows):
    schema = RelationSchema.build(
        "r", ["a", "b", "c"], types={"a": INTEGER, "b": INTEGER, "c": INTEGER}
    )
    t = Table(schema)
    for row in rows:
        t.insert(list(row))             # None and NULL both load as NULL
    return t


def naive_groups(table, attrs):
    groups = {}
    for row in table:
        key = row.project(attrs)
        if any(is_null(v) for v in key):
            continue
        groups.setdefault(key, []).append(row)
    return groups


def naive_distinct(table, attrs):
    return set(naive_groups(table, attrs))


def naive_functional_maps(table, lhs, rhs):
    return all(
        len({row.project(rhs) for row in rows}) <= 1
        for rows in naive_groups(table, lhs).values()
    )


def naive_violation_pairs(table, lhs, rhs, limit):
    witness = {}
    violations = []
    for row in table:
        key = row.project(lhs)
        if any(is_null(v) for v in key):
            continue
        image = row.project(rhs)
        if key in witness:
            prev_row, prev_image = witness[key]
            if prev_image != image:
                violations.append((prev_row, row))
                if len(violations) >= limit:
                    break
        else:
            witness[key] = (row, image)
    return violations


def naive_ratio(table, lhs, rhs):
    groups = naive_groups(table, lhs)
    if not groups:
        return 1.0
    clean = sum(
        1 for rows in groups.values() if len({row.project(rhs) for row in rows}) <= 1
    )
    return clean / len(groups)


class TestKernelsMatchNaiveReference:
    @given(rows3, attr_lists)
    def test_distinct_values(self, rows, attrs):
        t = table3(rows)
        assert distinct_values(t, attrs) == naive_distinct(t, attrs)

    @given(rows3, attr_lists)
    def test_group_by_keeps_rows_and_order(self, rows, attrs):
        t = table3(rows)
        got = [(k, [id(r) for r in g]) for k, g in group_by(t, attrs).items()]
        want = [(k, [id(r) for r in g]) for k, g in naive_groups(t, attrs).items()]
        assert got == want

    @given(rows3, attr_lists, attr_lists)
    def test_functional_maps(self, rows, lhs, rhs):
        t = table3(rows)
        assert functional_maps(t, lhs, rhs) == naive_functional_maps(t, lhs, rhs)

    @given(rows3, attr_lists, attr_lists, st.sampled_from([1, 2, 3, 10]))
    def test_fd_violation_pairs(self, rows, lhs, rhs, limit):
        t = table3(rows)
        got = fd_violation_pairs(t, lhs, rhs, limit)
        want = naive_violation_pairs(t, lhs, rhs, limit)
        assert [(id(a), id(b)) for a, b in got] == [(id(a), id(b)) for a, b in want]

    @given(rows3, attr_lists, attr_lists)
    def test_satisfaction_ratio(self, rows, lhs, rhs):
        t = table3(rows)
        fd = FunctionalDependency("r", lhs, rhs)
        assert satisfaction_ratio(t, fd) == naive_ratio(t, fd.lhs, fd.rhs)
