"""Inclusion dependency value objects."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dependencies.ind import InclusionDependency
from repro.exceptions import SchemaError


class TestConstruction:
    def test_arity_checked(self):
        with pytest.raises(SchemaError):
            InclusionDependency("R", ("a", "b"), "S", ("x",))

    def test_duplicates_rejected(self):
        with pytest.raises(SchemaError):
            InclusionDependency("R", ("a", "a"), "S", ("x", "y"))
        with pytest.raises(SchemaError):
            InclusionDependency("R", ("a", "b"), "S", ("x", "x"))

    def test_directionality(self):
        forward = InclusionDependency("R", ("a",), "S", ("x",))
        backward = forward.reversed()
        assert forward != backward
        assert backward.lhs_relation == "S"

    def test_pairing_respecting_equality(self):
        a = InclusionDependency("R", ("a", "b"), "S", ("x", "y"))
        b = InclusionDependency("R", ("b", "a"), "S", ("y", "x"))
        c = InclusionDependency("R", ("a", "b"), "S", ("y", "x"))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestParsing:
    def test_parse(self):
        ind = InclusionDependency.parse("HEmployee[no] << Person[id]")
        assert ind.lhs_relation == "HEmployee"
        assert ind.rhs_attrs == ("id",)

    def test_parse_multi(self):
        ind = InclusionDependency.parse("R[a, b] << S[x, y]")
        assert ind.pairs() == (("a", "x"), ("b", "y"))

    def test_parse_rejects_garbage(self):
        with pytest.raises(SchemaError):
            InclusionDependency.parse("R[a] subset S[x]")
        with pytest.raises(SchemaError):
            InclusionDependency.parse("Ra] << S[x]")

    def test_repr_parses_back(self):
        ind = InclusionDependency("Ass-Dept", ("dep",), "Department", ("dep",))
        assert InclusionDependency.parse(repr(ind)) == ind


class TestRenames:
    def test_rename_lhs(self):
        ind = InclusionDependency("R", ("a",), "S", ("x",))
        renamed = ind.rename_lhs("T", ("t",))
        assert renamed.lhs_relation == "T"
        assert renamed.rhs_relation == "S"

    def test_rename_rhs(self):
        ind = InclusionDependency("R", ("a",), "S", ("x",))
        renamed = ind.rename_rhs("T", ("t",))
        assert renamed.rhs_relation == "T"

    def test_is_unary(self):
        assert InclusionDependency("R", ("a",), "S", ("x",)).is_unary()
        assert not InclusionDependency("R", ("a", "b"), "S", ("x", "y")).is_unary()


# ----------------------------------------------------------------------
# identity: the key computed once in __init__ against the formula it
# replaces, over random pairings
# ----------------------------------------------------------------------
relations = st.sampled_from(["R", "S", "T"])
attributes = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def pairings(draw):
    """(lhs relation, rhs relation, positional pairs) with distinct sides."""
    width = draw(st.integers(1, 4))
    left = draw(st.lists(attributes, min_size=width, max_size=width, unique=True))
    right = draw(st.lists(attributes, min_size=width, max_size=width, unique=True))
    return draw(relations), draw(relations), list(zip(left, right))


def build(lhs_relation, rhs_relation, pairs):
    return InclusionDependency(
        lhs_relation, [p[0] for p in pairs], rhs_relation, [p[1] for p in pairs]
    )


def formula(ind):
    """The canonical form as it was recomputed on every comparison."""
    return (ind.lhs_relation, ind.rhs_relation, tuple(sorted(ind.pairs())))


class TestIdentity:
    @given(pairings(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_equality_ignores_pair_order(self, pairing, rng):
        lhs_relation, rhs_relation, pairs = pairing
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        a = build(lhs_relation, rhs_relation, pairs)
        b = build(lhs_relation, rhs_relation, shuffled)
        assert a == b
        assert hash(a) == hash(b)
        assert a.sort_key() == b.sort_key()

    @given(pairings(), pairings())
    @settings(max_examples=300, deadline=None)
    def test_hash_and_sort_key_agree_with_equality(self, one, other):
        a, b = build(*one), build(*other)
        assert a.sort_key() == formula(a)
        assert (a == b) == (formula(a) == formula(b))
        assert (a == b) == (a.sort_key() == b.sort_key())
        if a == b:
            assert hash(a) == hash(b)

    @given(pairings())
    @settings(max_examples=100, deadline=None)
    def test_copies_keep_identity(self, pairing):
        ind = build(*pairing)
        for clone in (
            pickle.loads(pickle.dumps(ind)),
            copy.copy(ind),
            copy.deepcopy(ind),
        ):
            assert clone == ind and ind == clone
            assert hash(clone) == hash(ind)
            assert clone.sort_key() == ind.sort_key() == formula(clone)
            assert repr(clone) == repr(ind)
            assert {clone, ind} == {ind}

    @given(
        st.lists(attributes, max_size=4),
        st.lists(attributes, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_construction_errors_unchanged(self, left, right):
        invalid = (
            len(left) != len(right)
            or not left
            or len(set(left)) != len(left)
            or len(set(right)) != len(right)
        )
        if invalid:
            with pytest.raises(SchemaError):
                InclusionDependency("R", left, "S", right)
        else:
            ind = InclusionDependency("R", left, "S", right)
            assert ind.lhs_attrs == tuple(left) and ind.rhs_attrs == tuple(right)
