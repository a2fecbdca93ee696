"""IND-Discovery (§6.1): from equi-joins to inclusion dependencies.

For each equi-join ``R_k[A_k] ⋈ R_l[A_l]`` of ``Q``, the algorithm
computes the three counts

    ``N_k = ||r_k[A_k]||``, ``N_l = ||r_l[A_l]||``,
    ``N_kl = ||r_k[A_k] ⋈ r_l[A_l]||``

and classifies the pair:

- ``N_kl = 0`` — empty intersection, a data-integrity smell; nothing is
  elicited (case i);
- ``N_kl = N_k`` and/or ``N_kl = N_l`` — one side's values are contained
  in the other's; the inclusion dependency (or both, when the sides are
  equal) is elicited (cases ii/iii);
- otherwise — a *non-empty intersection* (NEI); the expert user decides:
  conceptualize the intersection as a new relation of ``S`` (case iv),
  force a direction despite the dirty extension (cases v/vi), or ignore
  it (case vii).

A conceptualized intersection becomes a real relation in the database,
keyed by its attributes and populated with the shared values, plus the
two inclusion dependencies ``R_p[A_p] ≪ R_k[A_k]`` and
``R_p[A_p] ≪ R_l[A_l]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.expert import (
    ConceptualizeIntersection,
    Expert,
    ForceInclusion,
    IgnoreIntersection,
    NEIContext,
)
from repro.dependencies.ind import InclusionDependency
from repro.exceptions import ProcessError
from repro.programs.equijoin import EquiJoin
from repro.relational.algebra import natural_intersection
from repro.relational.attribute import Attribute
from repro.relational.database import Database
from repro.relational.schema import RelationSchema
from repro.util.naming import unique_name
from repro.util.ordering import SortedUnion

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.provenance import ProvenanceLedger


@dataclass(frozen=True)
class JoinOutcome:
    """How one equi-join of ``Q`` was classified."""

    join: EquiJoin
    n_left: int
    n_right: int
    n_common: int
    case: str                 # "empty" | "inclusion" | "nei"
    decision: str = ""        # for NEIs: "conceptualize" | "force" | "ignore"
    elicited: Tuple[InclusionDependency, ...] = ()


@dataclass
class INDDiscoveryResult:
    """The output sets of IND-Discovery: ``IND`` and ``S``."""

    inds: List[InclusionDependency] = field(default_factory=list)
    new_relations: List[RelationSchema] = field(default_factory=list)
    outcomes: List[JoinOutcome] = field(default_factory=list)
    _inds: SortedUnion = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._inds = SortedUnion(self.inds)

    @property
    def s_names(self) -> List[str]:
        return [r.name for r in self.new_relations]

    def add_ind(self, ind: InclusionDependency) -> None:
        """`⊔`: union with duplicate suppression, deterministic order."""
        self._inds.add(ind)

    def __repr__(self) -> str:
        return (
            f"INDDiscoveryResult({len(self.inds)} INDs, "
            f"S={self.s_names})"
        )


class INDDiscovery:
    """Runs the IND-Discovery algorithm against one database."""

    def __init__(
        self,
        database: Database,
        expert: Optional[Expert] = None,
        ledger: Optional["ProvenanceLedger"] = None,
    ) -> None:
        self.database = database
        self.expert = expert or Expert()
        self.ledger = ledger

    def run(self, equijoins: Sequence[EquiJoin]) -> INDDiscoveryResult:
        """Process every element of ``Q`` in deterministic order."""
        result = INDDiscoveryResult()
        joins = sorted(set(equijoins), key=lambda j: j.sort_key())
        for index, join in enumerate(joins, start=1):
            self._process(join, result)
            self.database.tracer.progress(
                "equijoin classified", current=index, total=len(joins),
            )
        return result

    # ------------------------------------------------------------------
    def _process(
        self,
        join: EquiJoin,
        result: INDDiscoveryResult,
    ) -> None:
        (k_rel, k_attrs), (l_rel, l_attrs) = join.sides()
        if (k_rel, k_attrs) == (l_rel, l_attrs):
            # a reflexive join (same relation, same attributes) can only
            # yield the trivial R[A] ≪ R[A]; it carries no interrelation
            # information, so it is classified and dropped without
            # touching the extension
            outcome = JoinOutcome(join, 0, 0, 0, case="reflexive")
            result.outcomes.append(outcome)
            self._emit(outcome)
            return
        n_k = self.database.count_distinct(k_rel, k_attrs)
        n_l = self.database.count_distinct(l_rel, l_attrs)
        n_kl = self.database.join_count(k_rel, k_attrs, l_rel, l_attrs)

        if n_kl == 0:
            # (i) possible data-integrity problem; nothing elicited
            outcome = JoinOutcome(join, n_k, n_l, n_kl, case="empty")
            result.outcomes.append(outcome)
            self._emit(outcome)
            return

        if n_kl == n_k or n_kl == n_l:
            elicited: List[InclusionDependency] = []
            if n_kl == n_k and n_k <= n_l:                       # (ii)
                ind = InclusionDependency(k_rel, k_attrs, l_rel, l_attrs)
                result.add_ind(ind)
                elicited.append(ind)
            if n_kl == n_l and n_l <= n_k:                       # (iii)
                ind = InclusionDependency(l_rel, l_attrs, k_rel, k_attrs)
                result.add_ind(ind)
                elicited.append(ind)
            outcome = JoinOutcome(
                join, n_k, n_l, n_kl, case="inclusion",
                elicited=tuple(elicited),
            )
            result.outcomes.append(outcome)
            self._emit(outcome)
            return

        # non-empty intersection distinct from both value sets
        context = NEIContext(join, n_k, n_l, n_kl)
        decision = self.expert.decide_nei(context)
        decision_id = (
            self.ledger.last_decision() if self.ledger is not None else None
        )

        if isinstance(decision, ConceptualizeIntersection):     # (iv)
            new_rel, inds = self._conceptualize(join, decision.name)
            result.new_relations.append(new_rel)
            for ind in inds:
                result.add_ind(ind)
            outcome = JoinOutcome(
                join, n_k, n_l, n_kl, case="nei",
                decision="conceptualize", elicited=tuple(inds),
            )
            result.outcomes.append(outcome)
            self._emit(outcome, decision_id, new_relation=new_rel)
            return

        if isinstance(decision, ForceInclusion):                # (v)/(vi)
            if decision.direction == "left_in_right":
                ind = InclusionDependency(k_rel, k_attrs, l_rel, l_attrs)
            else:
                ind = InclusionDependency(l_rel, l_attrs, k_rel, k_attrs)
            result.add_ind(ind)
            outcome = JoinOutcome(
                join, n_k, n_l, n_kl, case="nei",
                decision="force", elicited=(ind,),
            )
            result.outcomes.append(outcome)
            self._emit(outcome, decision_id)
            return

        if isinstance(decision, IgnoreIntersection):            # (vii)
            outcome = JoinOutcome(
                join, n_k, n_l, n_kl, case="nei", decision="ignore"
            )
            result.outcomes.append(outcome)
            self._emit(outcome, decision_id)
            return

        raise ProcessError(f"unknown NEI decision {decision!r}")

    # ------------------------------------------------------------------
    # provenance emission
    # ------------------------------------------------------------------
    def _emit(
        self,
        outcome: JoinOutcome,
        decision_id: Optional[str] = None,
        new_relation: Optional[RelationSchema] = None,
    ) -> None:
        """Record one join's classification in the lineage DAG.

        Pure bookkeeping over counts the algorithm already computed —
        the ledger issues no extension query of its own; the count
        evidence is resolved against the tracer's event stream by call
        signature.
        """
        if self.ledger is None:
            return
        join = outcome.join
        join_id = self.ledger.node("equijoin", repr(join))
        attrs = {"case": outcome.case}
        if outcome.case != "reflexive":
            attrs.update(
                n_left=outcome.n_left,
                n_right=outcome.n_right,
                n_common=outcome.n_common,
            )
        if outcome.decision:
            attrs["decision"] = outcome.decision
        cls_id = self.ledger.node("classification", repr(join), **attrs)
        self.ledger.link(join_id, cls_id, "classified")
        if outcome.case != "reflexive":
            (k_rel, k_attrs), (l_rel, l_attrs) = join.sides()
            self.ledger.attach_evidence(cls_id, "count_distinct", (k_rel,), (k_attrs,))
            self.ledger.attach_evidence(cls_id, "count_distinct", (l_rel,), (l_attrs,))
            self.ledger.attach_evidence(
                cls_id, "join_count", (k_rel, l_rel), (k_attrs, l_attrs)
            )
        if decision_id is not None:
            self.ledger.link(decision_id, cls_id, "decided")
        for ind in outcome.elicited:
            ind_id = self.ledger.node("ind", repr(ind))
            self.ledger.link(cls_id, ind_id, "elicited")
        if new_relation is not None:
            rel_id = self.ledger.node(
                "relation",
                new_relation.name,
                origin="intersection",
                source=repr(join),
            )
            self.ledger.link(cls_id, rel_id, "conceptualized")

    # ------------------------------------------------------------------
    def _conceptualize(
        self, join: EquiJoin, name: str
    ) -> Tuple[RelationSchema, List[InclusionDependency]]:
        """Create ``R_p(A_p)``, keyed and populated with the intersection."""
        (k_rel, k_attrs), (l_rel, l_attrs) = join.sides()
        name = unique_name(name, self.database.schema.relation_names)

        # attribute names: reuse the shared names when both sides agree,
        # otherwise take the left side's names (documented in DESIGN.md)
        attr_names = [
            ka if ka == la else ka for ka, la in zip(k_attrs, l_attrs)
        ]
        left_schema = self.database.schema.relation(k_rel)
        attrs = [
            Attribute(an, left_schema.attribute(ka).dtype, nullable=False)
            for an, ka in zip(attr_names, k_attrs)
        ]
        new_rel = RelationSchema(name, attrs)
        new_rel.declare_unique(attr_names)
        self.database.create_relation(new_rel)

        shared = natural_intersection(
            self.database.scan(k_rel, k_attrs), k_attrs,
            self.database.scan(l_rel, l_attrs), l_attrs,
        )
        self.database.insert_many(name, sorted(shared, key=repr))

        inds = [
            InclusionDependency(name, attr_names, k_rel, k_attrs),
            InclusionDependency(name, attr_names, l_rel, l_attrs),
        ]
        return new_rel, inds


def discover_inds(
    database: Database,
    equijoins: Sequence[EquiJoin],
    expert: Optional[Expert] = None,
) -> INDDiscoveryResult:
    """One-shot convenience wrapper around :class:`INDDiscovery`."""
    return INDDiscovery(database, expert).run(equijoins)
