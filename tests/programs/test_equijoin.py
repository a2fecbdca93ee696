"""The equi-join value object: symmetry, canonical form, parsing."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SchemaError
from repro.programs.equijoin import EquiJoin
from repro.relational.attribute import AttributeRef


class TestCanonicalForm:
    def test_symmetric_equality(self):
        a = EquiJoin("HEmployee", ("no",), "Person", ("id",))
        b = EquiJoin("Person", ("id",), "HEmployee", ("no",))
        assert a == b
        assert hash(a) == hash(b)

    def test_canonical_left_is_smaller_name(self):
        j = EquiJoin("Zeta", ("z",), "Alpha", ("a",))
        assert j.left_relation == "Alpha"
        assert j.right_relation == "Zeta"

    def test_pairing_preserved_under_reorder(self):
        # (a<->x, b<->y) must stay paired however stated
        a = EquiJoin("R", ("a", "b"), "S", ("x", "y"))
        b = EquiJoin("R", ("b", "a"), "S", ("y", "x"))
        c = EquiJoin("R", ("a", "b"), "S", ("y", "x"))
        assert a == b
        assert a != c

    def test_tied_self_join_reads_the_same_both_ways(self):
        forwards = EquiJoin("R", ("b", "c", "d"), "R", ("c", "d", "b"))
        backwards = EquiJoin("R", ("c", "d", "b"), "R", ("b", "c", "d"))
        assert forwards == backwards
        assert repr(forwards) == repr(backwards) == "R[b, c, d] >< R[c, d, b]"

    def test_self_join_allowed(self):
        j = EquiJoin("R", ("a",), "R", ("b",))
        assert j.is_self_join()

    def test_involves(self):
        j = EquiJoin("R", ("a",), "S", ("b",))
        assert j.involves("R") and j.involves("S")
        assert not j.involves("T")


class TestValidation:
    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            EquiJoin("R", ("a", "b"), "S", ("x",))

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            EquiJoin("R", (), "S", ())

    def test_string_attrs_accepted(self):
        j = EquiJoin("R", "a", "S", "b")
        assert j.left_attrs == ("a",)


class TestParsing:
    def test_parse_paper_notation(self):
        j = EquiJoin.parse("HEmployee[no] >< Person[id]")
        assert j == EquiJoin("HEmployee", ("no",), "Person", ("id",))

    def test_parse_multi_attribute(self):
        j = EquiJoin.parse("R[a, b] >< S[x, y]")
        assert j.left_attrs == ("a", "b")

    def test_parse_rejects_garbage(self):
        with pytest.raises(SchemaError):
            EquiJoin.parse("not a join")
        with pytest.raises(SchemaError):
            EquiJoin.parse("R[a >< S[b]")

    def test_repr_parses_back(self):
        j = EquiJoin("Assignment", ("dep",), "Department", ("dep",))
        assert EquiJoin.parse(repr(j)) == j


class TestRefs:
    def test_refs(self):
        j = EquiJoin("R", ("a",), "S", ("b",))
        assert j.left_ref() == AttributeRef("R", "a")
        assert j.right_ref() == AttributeRef("S", "b")

    def test_sides(self):
        j = EquiJoin("S", ("b",), "R", ("a",))
        assert j.sides() == (("R", ("a",)), ("S", ("b",)))


# ----------------------------------------------------------------------
# identity: the key computed once in __init__ against the canonical
# form it replaces, over random pairings
# ----------------------------------------------------------------------
relations = st.sampled_from(["R", "S", "T"])
attributes = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def pairings(draw):
    """(left relation, right relation, positional pairs)."""
    width = draw(st.integers(1, 4))
    left = draw(st.lists(attributes, min_size=width, max_size=width, unique=True))
    right = draw(st.lists(attributes, min_size=width, max_size=width, unique=True))
    return draw(relations), draw(relations), list(zip(left, right))


def build(left_relation, right_relation, pairs):
    return EquiJoin(
        left_relation, [p[0] for p in pairs], right_relation, [p[1] for p in pairs]
    )


def formula(left_relation, right_relation, pairs):
    """The canonical form, derived from the constructor's arguments."""
    left_attrs = tuple(p[0] for p in pairs)
    right_attrs = tuple(p[1] for p in pairs)
    left_side = (left_relation, tuple(sorted(left_attrs)))
    right_side = (right_relation, tuple(sorted(right_attrs)))
    if right_side < left_side:
        left_relation, right_relation = right_relation, left_relation
        left_attrs, right_attrs = right_attrs, left_attrs
    ordered = sorted(zip(left_attrs, right_attrs))
    if left_side == right_side:
        ordered = min(ordered, sorted(zip(right_attrs, left_attrs)))
    return (
        left_relation,
        tuple(p[0] for p in ordered),
        right_relation,
        tuple(p[1] for p in ordered),
    )


class TestIdentity:
    @given(pairings(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_equality_ignores_pair_order_and_side_order(self, pairing, rng):
        left_relation, right_relation, pairs = pairing
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        a = build(left_relation, right_relation, pairs)
        b = build(left_relation, right_relation, shuffled)
        assert a == b and hash(a) == hash(b) and a.sort_key() == b.sort_key()
        # stated backwards it is the same join, tied sides included
        c = build(right_relation, left_relation, [(r, l) for l, r in shuffled])
        assert a == c and hash(a) == hash(c) and a.sort_key() == c.sort_key()
        assert repr(a) == repr(c)

    @given(pairings(), pairings())
    @settings(max_examples=300, deadline=None)
    def test_hash_and_sort_key_agree_with_equality(self, one, other):
        a, b = build(*one), build(*other)
        assert a.sort_key() == formula(*one)
        assert (a == b) == (formula(*one) == formula(*other))
        if a == b:
            assert hash(a) == hash(b)

    @given(pairings())
    @settings(max_examples=100, deadline=None)
    def test_copies_keep_identity(self, pairing):
        join = build(*pairing)
        for clone in (
            pickle.loads(pickle.dumps(join)),
            copy.copy(join),
            copy.deepcopy(join),
        ):
            assert clone == join and join == clone
            assert hash(clone) == hash(join)
            assert clone.sort_key() == join.sort_key() == formula(*pairing)
            assert repr(clone) == repr(join)
            assert {clone, join} == {join}

    @given(st.lists(attributes, max_size=3), st.lists(attributes, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_construction_errors_unchanged(self, left, right):
        if len(left) != len(right) or not left:
            with pytest.raises(SchemaError):
                EquiJoin("R", left, "S", right)
        else:
            join = EquiJoin("R", left, "S", right)
            assert sorted(zip(join.left_attrs, join.right_attrs)) == sorted(
                zip(left, right)
            )
