"""LHS-Discovery (§6.2.1): candidate identifiers of hidden objects.

Scans the elicited inclusion dependencies for *non-key* attribute sets —
the attributes practitioners navigate with although no relation
conceptualizes them.  Two cases per dependency ``R_i[A_i] ≪ R_j[A_j]``:

- ``R_i`` is a relation of ``S`` (a conceptualized intersection — by
  construction it can only appear on the left): when the right-hand side
  ``R_j.A_j`` is not a key, it joins the hidden-object set ``H`` — the
  expert already chose to conceptualize a subset of its values;
- otherwise each non-key side joins the candidate set ``LHS``.

``LHS`` and ``H`` are kept disjoint: an attribute set promoted to ``H``
leaves ``LHS`` (it is already conceptualized).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.dependencies.ind import InclusionDependency
from repro.relational.attribute import AttributeRef
from repro.relational.schema import DatabaseSchema
from repro.util.ordering import SortedUnion

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.provenance import ProvenanceLedger


@dataclass
class LHSDiscoveryResult:
    """The sets ``LHS`` (candidate identifiers) and ``H`` (hidden objects)."""

    lhs: List[AttributeRef] = field(default_factory=list)
    hidden: List[AttributeRef] = field(default_factory=list)
    _lhs: SortedUnion = field(init=False, repr=False, compare=False)
    _hidden: SortedUnion = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._lhs = SortedUnion(self.lhs)
        self._hidden = SortedUnion(self.hidden)

    def add_lhs(self, ref: AttributeRef) -> None:
        if ref not in self._hidden:
            self._lhs.add(ref)

    def add_hidden(self, ref: AttributeRef) -> None:
        self._lhs.discard(ref)
        self._hidden.add(ref)

    def __repr__(self) -> str:
        return f"LHSDiscoveryResult(LHS={self.lhs}, H={self.hidden})"


class LHSDiscovery:
    """Runs LHS-Discovery over a schema ``R ⊔ S`` and an IND set."""

    def __init__(
        self,
        schema: DatabaseSchema,
        s_names: Iterable[str],
        ledger: Optional["ProvenanceLedger"] = None,
    ) -> None:
        self.schema = schema
        self.s_names = set(s_names)
        self.ledger = ledger

    def run(self, inds: Sequence[InclusionDependency]) -> LHSDiscoveryResult:
        result = LHSDiscoveryResult()
        for ind in sorted(inds, key=lambda i: i.sort_key()):
            self._process(ind, result)
        return result

    # ------------------------------------------------------------------
    def _is_key(self, relation: str, attrs: Sequence[str]) -> bool:
        if relation not in self.schema:
            return False
        return self.schema.relation(relation).is_key(attrs)

    def _process(self, ind: InclusionDependency, result: LHSDiscoveryResult) -> None:
        s_involved = (
            ind.lhs_relation in self.s_names or ind.rhs_relation in self.s_names
        )
        if s_involved:
            # (i) conceptualized intersection: a non-key right-hand side is
            # a hidden object (its values are already partly conceptualized)
            if ind.rhs_relation not in self.s_names and not self._is_key(
                ind.rhs_relation, ind.rhs_attrs
            ):
                ref = AttributeRef(ind.rhs_relation, ind.rhs_attrs)
                result.add_hidden(ref)
                self._emit(ref, ind, member="H")
            return
        # (ii)/(iii) plain dependency: every non-key side is a candidate
        if not self._is_key(ind.lhs_relation, ind.lhs_attrs):
            ref = AttributeRef(ind.lhs_relation, ind.lhs_attrs)
            result.add_lhs(ref)
            self._emit(ref, ind, member="LHS")
        if not self._is_key(ind.rhs_relation, ind.rhs_attrs):
            ref = AttributeRef(ind.rhs_relation, ind.rhs_attrs)
            result.add_lhs(ref)
            self._emit(ref, ind, member="LHS")

    def _emit(
        self, ref: AttributeRef, ind: InclusionDependency, member: str
    ) -> None:
        """Record one candidate identifier and the IND it was seen in."""
        if self.ledger is None:
            return
        cand_id = self.ledger.node("candidate", repr(ref))
        node = self.ledger.nodes[cand_id]
        # H is sticky: a promoted candidate never demotes back to LHS
        if node.attrs.get("set") != "H":
            node.attrs["set"] = member
        ind_id = self.ledger.node("ind", repr(ind))
        self.ledger.link(ind_id, cand_id, "navigation")


def discover_lhs(
    schema: DatabaseSchema,
    s_names: Iterable[str],
    inds: Sequence[InclusionDependency],
) -> LHSDiscoveryResult:
    """One-shot convenience wrapper around :class:`LHSDiscovery`."""
    return LHSDiscovery(schema, s_names).run(inds)
