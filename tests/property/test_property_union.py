"""The method's ``⊔`` by hash equals the list scans it replaced (hypothesis).

The paper builds ``IND``, ``LHS``, ``H``, ``F`` and ``Q`` with ``⊔``, set
union with duplicate suppression, and Restruct redirects the IND set
onto every new relation.  The oracles below are the list-scan versions:
membership by ``in`` on the list, then a stable sort by ``sort_key()``.
Random operation sequences with duplicates and permuted pairings must
leave the same lists, holding the same objects in the same order, and
the same provenance ledger (nodes, links and their order).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ind_discovery import INDDiscoveryResult
from repro.core.lhs_discovery import LHSDiscoveryResult
from repro.core.restruct import Restruct
from repro.core.rhs_discovery import RHSDiscoveryResult
from repro.dependencies.fd import FunctionalDependency
from repro.dependencies.ind import InclusionDependency
from repro.obs.provenance import ProvenanceLedger, provenance_records
from repro.programs.equijoin import EquiJoin
from repro.programs.extractor import ExtractionReport
from repro.relational.attribute import AttributeRef
from repro.relational.database import Database

relations = st.sampled_from(["R", "S", "T"])
attributes = st.sampled_from(["a", "b", "c", "d"])


def attribute_lists(max_size=2):
    return st.lists(attributes, min_size=1, max_size=max_size, unique=True)


@st.composite
def pairs(draw):
    """Positional pairs in a random order: permuted pairings collide."""
    width = draw(st.integers(1, 2))
    left = draw(st.lists(attributes, min_size=width, max_size=width, unique=True))
    right = draw(st.lists(attributes, min_size=width, max_size=width, unique=True))
    return draw(st.permutations(list(zip(left, right))))


@st.composite
def inds(draw):
    chosen = draw(pairs())
    return InclusionDependency(
        draw(relations), [p[0] for p in chosen], draw(relations), [p[1] for p in chosen]
    )


@st.composite
def joins(draw):
    chosen = draw(pairs())
    return EquiJoin(
        draw(relations), [p[0] for p in chosen], draw(relations), [p[1] for p in chosen]
    )


refs = st.builds(AttributeRef, relations, attribute_lists(3))
fds = st.builds(FunctionalDependency, relations, attribute_lists(), attribute_lists())


def shown(items):
    """The list as printed: equal elements of another spelling differ."""
    return [repr(item) for item in items]


# ----------------------------------------------------------------------
# the list-scan oracles
# ----------------------------------------------------------------------
def scan_union(items, item):
    if item not in items:
        items.append(item)
        items.sort(key=lambda i: i.sort_key())


def scan_remove(items, item):
    if item in items:
        items.remove(item)


def scan_redirect(ledger, working, relation, attr_pool, new_relation, exact):
    def remap_side(rel, attrs):
        if rel != relation:
            return rel, attrs
        attr_set = set(attrs)
        if exact:
            if attr_set == attr_pool:
                return new_relation, attrs
        elif attr_set <= attr_pool:
            return new_relation, attrs
        return rel, attrs

    out = []
    for ind in working:
        l_rel, l_attrs = remap_side(ind.lhs_relation, ind.lhs_attrs)
        r_rel, r_attrs = remap_side(ind.rhs_relation, ind.rhs_attrs)
        if l_rel == r_rel and l_attrs == r_attrs:
            continue
        rewritten = InclusionDependency(l_rel, l_attrs, r_rel, r_attrs)
        if ledger is not None and rewritten != ind:
            old_id = ledger.node("ind", repr(ind))
            new_id = ledger.node("ind", repr(rewritten))
            ledger.link(old_id, new_id, "redirected")
        if rewritten not in out:
            out.append(rewritten)
    return out


# ----------------------------------------------------------------------
class TestUnionMatchesListScan:
    @given(st.lists(inds(), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_ind_discovery_add_ind(self, sequence):
        result, oracle = INDDiscoveryResult(), []
        for ind in sequence:
            result.add_ind(ind)
            scan_union(oracle, ind)
        assert shown(result.inds) == shown(oracle)
        assert result.inds == oracle

    @given(st.lists(st.tuples(st.sampled_from(["lhs", "hidden"]), refs), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_lhs_discovery_add_lhs_and_hidden(self, sequence):
        result, lhs, hidden = LHSDiscoveryResult(), [], []
        for member, ref in sequence:
            if member == "lhs":
                result.add_lhs(ref)
                if ref not in lhs and ref not in hidden:
                    scan_union(lhs, ref)
            else:
                result.add_hidden(ref)
                scan_remove(lhs, ref)
                scan_union(hidden, ref)
        assert shown(result.lhs) == shown(lhs)
        assert shown(result.hidden) == shown(hidden)

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("fd"), fds),
                st.tuples(st.sampled_from(["hidden", "remove"]), refs),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_rhs_discovery_add_fd_and_hidden(self, sequence):
        result, fd_list, hidden = RHSDiscoveryResult(), [], []
        for operation, item in sequence:
            if operation == "fd":
                result.add_fd(item)
                scan_union(fd_list, item)
            elif operation == "hidden":
                result.add_hidden(item)
                scan_union(hidden, item)
            else:
                result.remove_hidden(item)
                scan_remove(hidden, item)
        assert shown(result.fds) == shown(fd_list)
        assert shown(result.hidden) == shown(hidden)

    @given(st.lists(st.tuples(joins(), st.sampled_from(["p", "q"]), st.integers(0, 3)),
                    max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_extraction_report_record(self, sequence):
        report, joins_seen, provenance = ExtractionReport(), [], {}
        for join, program, index in sequence:
            report.record(join, program, index)
            if join not in provenance:
                provenance[join] = []
                scan_union(joins_seen, join)
            provenance[join].append((program, index))
        assert shown(report.joins) == shown(joins_seen)
        assert [(repr(j), p) for j, p in report.provenance.items()] == [
            (repr(j), p) for j, p in provenance.items()
        ]


class TestRedirectMatchesListScan:
    @given(
        st.lists(inds(), max_size=40),
        relations,
        attribute_lists(3),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_redirect(self, working, relation, pool, exact, with_ledger):
        ledger = ProvenanceLedger() if with_ledger else None
        oracle_ledger = ProvenanceLedger() if with_ledger else None
        restruct = Restruct(Database(), ledger=ledger)
        out = restruct._redirect(list(working), relation, set(pool), "P", exact)
        expected = scan_redirect(
            oracle_ledger, list(working), relation, set(pool), "P", exact
        )
        assert shown(out) == shown(expected)
        assert [i.sort_key() for i in out] == [i.sort_key() for i in expected]
        if with_ledger:
            assert provenance_records(ledger) == provenance_records(oracle_ledger)
