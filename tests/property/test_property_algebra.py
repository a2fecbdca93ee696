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


def assert_same_pairs(got, want):
    """Witness pairs agree row for row: same relation, values and repr.

    The kernel rebuilds witness rows from scanned value tuples, so they
    equal the oracle's rows without being the same objects; two rows
    that are equal here are indistinguishable to the expert reading
    them.
    """
    assert got == want
    assert [(repr(a), repr(b)) for a, b in got] == [(repr(a), repr(b)) for a, b in want]


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
        assert_same_pairs(got, want)

    @given(rows3, attr_lists, attr_lists)
    def test_satisfaction_ratio(self, rows, lhs, rhs):
        t = table3(rows)
        fd = FunctionalDependency("r", lhs, rhs)
        assert satisfaction_ratio(t, fd) == naive_ratio(t, fd.lhs, fd.rhs)


# ----------------------------------------------------------------------
# the LHS grouping behind the RHS evidence never goes stale
# ----------------------------------------------------------------------

#: one step of a table's life: an evidence query or a mutation
steps = st.one_of(
    st.tuples(st.just("evidence"), attr_lists, attr_lists, st.sampled_from([0, 1, 3])),
    st.tuples(st.just("insert"), st.tuples(cell, cell, cell)),
    st.tuples(st.just("delete"), st.integers(0, 3)),
    st.tuples(st.just("replace"), rows3),
    st.tuples(st.just("rehome")),
)


def assert_evidence_matches_naive(table, lhs, rhs, limit, scan=None):
    """Ratio and witnesses equal the oracles'; *scan*, given, returns a
    fresh whole-row scan to build the grouping from instead of *table*."""
    from repro.dependencies.inference import violation_witnesses
    from repro.relational.algebra import lhs_grouping

    fd = FunctionalDependency(table.name, lhs, rhs)
    source = table if scan is None else lhs_grouping(scan(), fd.lhs)
    assert satisfaction_ratio(source, fd) == naive_ratio(table, fd.lhs, fd.rhs)
    got = violation_witnesses(source, fd, limit=limit)
    want = naive_violation_pairs(table, fd.lhs, fd.rhs, limit)
    assert_same_pairs(got, want)


class TestEvidenceMemoNeverStale:
    @settings(max_examples=150)
    @given(rows3, st.lists(steps, max_size=12))
    def test_alternating_queries_and_mutations(self, rows, script):
        t = table3(rows)
        last = None
        for step in script:
            if step[0] == "evidence":
                last = step[1:]
            elif step[0] == "insert":
                t.insert(list(step[1]))
            elif step[0] == "delete":
                t.delete_where(lambda row, v=step[1]: row["a"] == v)
            elif step[0] == "replace":
                t.replace_rows([list(r) for r in step[1]])
            else:
                t = t.with_schema(t.schema)
            if last is not None:
                # the same LHS again after the write: a stale memo shows
                assert_evidence_matches_naive(t, *last)

    @settings(max_examples=40, deadline=None)
    @given(rows3, st.lists(steps, max_size=8))
    def test_mirrors_through_write_through_and_recreate(self, rows, script):
        """On SQLite, writes go through its mirror; ``rehome`` drops and
        recreates the relation, so the next mirror is new."""
        from repro.backends import create_backend
        from repro.relational import Database, DatabaseSchema

        schema = table3([]).schema
        db = Database(DatabaseSchema([schema]), backend=create_backend("sqlite"))
        db.insert_many("r", [list(r) for r in rows])
        last = None
        for step in script:
            if step[0] == "evidence":
                last = step[1:]
            elif step[0] == "insert":
                db.insert("r", list(step[1]))
            elif step[0] == "delete":
                db.table("r").delete_where(lambda row, v=step[1]: row["a"] == v)
            elif step[0] == "replace":
                db.table("r").replace_rows([list(r) for r in step[1]])
            else:
                kept = [row.values for row in db.table("r")]
                db.drop_relation("r")
                db.create_relation(schema)
                db.insert_many("r", kept)
            if last is not None:
                assert_evidence_matches_naive(db.table("r"), *last)
                assert_evidence_matches_naive(
                    db.table("r"), *last, scan=lambda: db.scan("r", ("a", "b", "c"))
                )
        assert list(db.backend.rows("r")) == [row.values for row in db.table("r")]
        db.close()
