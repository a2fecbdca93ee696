"""RHS-Discovery (§6.2.2): finding the right-hand sides of candidate FDs.

For each candidate identifier ``R_i.A`` in ``LHS ∪ H``:

1. *prune the candidates*: ``T = X_i - A - K_i`` (keys are dropped — only
   3NF is targeted), and when ``A`` is nullable (``A ∉ N``) every not-null
   attribute is dropped too — a nullable determinant cannot functionally
   account for a mandatory attribute;
2. *test each survivor* ``b ∈ T`` against the extension; on failure the
   expert may still enforce ``A -> b`` (dirty-data override, step ii);
3. *classify*: a non-empty right-hand side ``B``, once validated by the
   expert, yields ``R_i : A -> B`` in ``F`` (and leaves ``H`` if it was
   there); an empty one makes ``R_i.A`` a *hidden object* candidate the
   expert may conceptualize into ``H`` (steps iv/v).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.expert import Expert, FDContext
from repro.dependencies.fd import FunctionalDependency
from repro.dependencies.inference import satisfaction_ratio, violation_witnesses
from repro.relational.algebra import lhs_grouping
from repro.relational.attribute import AttributeRef
from repro.relational.database import Database
from repro.relational.table import Scan
from repro.util.ordering import SortedUnion

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.provenance import ProvenanceLedger


@dataclass(frozen=True)
class CandidateOutcome:
    """Audit record of one ``R_i.A`` processed by RHS-Discovery."""

    ref: AttributeRef
    candidates: Tuple[str, ...]        # T after pruning
    pruned_keys: Tuple[str, ...]       # removed because they are key attrs
    pruned_not_null: Tuple[str, ...]   # removed by the nullable-LHS rule
    accepted: Tuple[str, ...]          # B
    enforced: Tuple[str, ...]          # subset of B the expert forced
    action: str                        # "fd" | "hidden" | "ignored" | "kept-hidden" | "rejected"


@dataclass
class RHSDiscoveryResult:
    """The sets ``F`` and (final) ``H``."""

    fds: List[FunctionalDependency] = field(default_factory=list)
    hidden: List[AttributeRef] = field(default_factory=list)
    outcomes: List[CandidateOutcome] = field(default_factory=list)
    _fds: SortedUnion = field(init=False, repr=False, compare=False)
    _hidden: SortedUnion = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._fds = SortedUnion(self.fds)
        self._hidden = SortedUnion(self.hidden)

    def add_fd(self, fd: FunctionalDependency) -> None:
        self._fds.add(fd)

    def add_hidden(self, ref: AttributeRef) -> None:
        self._hidden.add(ref)

    def remove_hidden(self, ref: AttributeRef) -> None:
        self._hidden.discard(ref)

    def __repr__(self) -> str:
        return f"RHSDiscoveryResult(F={self.fds}, H={self.hidden})"


class RHSDiscovery:
    """Runs RHS-Discovery against one database.

    The two pruning rules of the algorithm's first step can be disabled
    individually (*prune_keys*, *prune_not_null*) — used by the ablation
    benchmarks to measure what each rule saves; production runs keep
    both on, as the paper specifies.
    """

    def __init__(
        self,
        database: Database,
        expert: Optional[Expert] = None,
        prune_keys: bool = True,
        prune_not_null: bool = True,
        ledger: Optional["ProvenanceLedger"] = None,
    ) -> None:
        self.database = database
        self.expert = expert or Expert()
        self.prune_keys = prune_keys
        self.prune_not_null = prune_not_null
        self.ledger = ledger
        #: the whole-row scan of the relation whose identifiers are in
        #: progress (see :meth:`_relation_scan`); None between runs
        self._scan: Optional[Scan] = None

    def run(
        self,
        lhs: Sequence[AttributeRef],
        hidden: Sequence[AttributeRef],
    ) -> RHSDiscoveryResult:
        result = RHSDiscoveryResult()
        hidden_set = {h for h in hidden}
        for ref in hidden:
            result.add_hidden(ref)
        ordered = sorted(set(lhs) | hidden_set, key=lambda r: r.sort_key())
        try:
            for index, ref in enumerate(ordered, start=1):
                self._process(ref, ref in hidden_set, result)
                self.database.tracer.progress(
                    "identifier checked", current=index, total=len(ordered),
                )
        finally:
            self._scan = None
        return result

    # ------------------------------------------------------------------
    def _not_null_names(self, relation: str) -> Set[str]:
        """Attributes of *relation* in the paper's set ``N``."""
        schema = self.database.schema.relation(relation)
        names = {a.name for a in schema.attributes if not a.nullable}
        for u in schema.uniques:
            names |= set(u.attributes)
        return names

    def _prune(self, ref: AttributeRef) -> Tuple[List[str], List[str], List[str]]:
        """Step 1: ``(T, pruned keys, pruned not-null)`` for one ``R_i.A``."""
        relation = self.database.schema.relation(ref.relation)

        # T = X_i - A - K_i  (every declared key's attributes are pruned)
        key_attrs: Set[str] = (
            {a for u in relation.uniques for a in u.attributes}
            if self.prune_keys
            else set()
        )
        pruned_keys: List[str] = []
        candidates: List[str] = []
        for name in relation.attribute_names:
            if name in ref.attributes:
                continue
            if name in key_attrs:
                pruned_keys.append(name)
            else:
                candidates.append(name)

        # if A ∉ N then T = T - (N ∩ X_i)
        not_null = self._not_null_names(ref.relation)
        pruned_not_null: List[str] = []
        if self.prune_not_null and not set(ref.attributes) <= not_null:
            kept = []
            for name in candidates:
                if name in not_null:
                    pruned_not_null.append(name)
                else:
                    kept.append(name)
            candidates = kept
        return candidates, pruned_keys, pruned_not_null

    def _process(
        self,
        ref: AttributeRef,
        in_hidden: bool,
        result: RHSDiscoveryResult,
    ) -> None:
        a_names = tuple(ref.attributes)
        candidates, pruned_keys, pruned_not_null = self._prune(ref)
        cand_id = (
            self.ledger.node("candidate", repr(ref))
            if self.ledger is not None
            else None
        )

        # test every candidate first, so that one evidence span covers
        # all the failures; then the expert may enforce each failure
        holds: Dict[str, bool] = {}
        for name in candidates:
            holds[name] = self.database.fd_holds(ref.relation, a_names, (name,))
            if cand_id is not None:
                # the fd_holds test of A -> name, matched by signature
                self.ledger.attach_evidence(
                    cand_id, "fd_holds", (ref.relation,), (a_names, (name,))
                )
        contexts = self._evidence(ref, [n for n in candidates if not holds[n]])
        accepted: List[str] = []
        enforced: List[str] = []
        decision_ids: List[str] = []
        for name in candidates:
            if holds[name]:                                                  # (i)
                accepted.append(name)
                continue
            if self.expert.enforce_fd(contexts[name]):                       # (ii)
                accepted.append(name)
                enforced.append(name)
            if self.ledger is not None:
                decision = self.ledger.last_decision()
                if decision is not None:
                    decision_ids.append(decision)

        if accepted:                                                         # (iii)
            fd = FunctionalDependency(ref.relation, a_names, tuple(accepted))
            valid = self.expert.validate_fd(fd)
            if self.ledger is not None:
                decision = self.ledger.last_decision()
                if decision is not None:
                    decision_ids.append(decision)
            if valid:
                result.add_fd(fd)
                result.remove_hidden(ref)
                action = "fd"
                if cand_id is not None:
                    fd_id = self.ledger.node(
                        "fd",
                        repr(fd),
                        accepted=list(accepted),
                        enforced=list(enforced),
                    )
                    self.ledger.link(cand_id, fd_id, "determined")
                    for decision in decision_ids:
                        self.ledger.link(decision, fd_id, "decided")
            else:
                # the expert rejected the presumption; treat as empty RHS
                action = self._handle_empty(ref, in_hidden, result)
                action = "rejected" if action == "ignored" else action
        else:
            action = self._handle_empty(ref, in_hidden, result)

        if cand_id is not None:
            node = self.ledger.nodes[cand_id]
            node.attrs["action"] = action
            if action in ("hidden", "kept-hidden"):
                node.attrs["set"] = "H"
            if action != "fd":
                # the empty-RHS / rejection path: its expert answers
                # (enforce refusals, rejected validation, hidden-object
                # question) justify the candidate's final state
                for decision in decision_ids:
                    self.ledger.link(decision, cand_id, "decided")
                decision = self.ledger.last_decision()
                if decision is not None and action in ("hidden", "ignored"):
                    self.ledger.link(decision, cand_id, "decided")

        result.outcomes.append(
            CandidateOutcome(
                ref=ref,
                candidates=tuple(candidates),
                pruned_keys=tuple(pruned_keys),
                pruned_not_null=tuple(pruned_not_null),
                accepted=tuple(accepted),
                enforced=tuple(enforced),
                action=action,
            )
        )

    def _evidence(
        self, ref: AttributeRef, failing: Sequence[str]
    ) -> Dict[str, FDContext]:
        """What the expert sees for each failing ``A -> b`` (step ii).

        The ratio and up to three witness pairs per candidate, read from
        the relation's extension under one ``evidence`` span per
        identifier; both come from one grouping by ``A``, which the
        identifier owns, of the relation's whole-row scan, and the
        witness rows are the scanned tuples bound as rows.  No extension
        query is counted.
        """
        if not failing:
            return {}
        a_names = tuple(ref.attributes)
        contexts: Dict[str, FDContext] = {}
        with self.database.tracer.span("evidence", kind="step", candidates=len(failing)):
            grouping = lhs_grouping(self._relation_scan(ref.relation), a_names)
            for name in failing:
                fd = FunctionalDependency(ref.relation, a_names, (name,))
                contexts[name] = FDContext(
                    fd,
                    satisfaction_ratio(grouping, fd),
                    tuple(
                        f"{a!r} / {b!r}"
                        for a, b in violation_witnesses(grouping, fd, limit=3)
                    ),
                )
        return contexts

    def _relation_scan(self, relation: str) -> Scan:
        """One whole-row scan of *relation*, shared by its identifiers.

        Identifiers are processed relation by relation, and a relation
        often has several with failing candidates (one per merged
        entity); scanning it once for all of them costs less than one
        narrow scan each, whose values a backend like SQLite builds
        anew every time.  The listed scan is kept until the next
        relation's first failing identifier, and dropped when the run
        ends.  RHS-Discovery writes nothing, so it stays current.
        """
        if self._scan is None or self._scan.relation != relation:
            names = self.database.schema.relation(relation).attribute_names
            scan = self.database.scan(relation, names)
            scan.tuples = list(scan)
            self._scan = scan
        return self._scan

    def _handle_empty(
        self, ref: AttributeRef, in_hidden: bool, result: RHSDiscoveryResult
    ) -> str:
        if in_hidden:
            return "kept-hidden"          # already conceptualized, stays in H
        if self.expert.conceptualize_hidden_object(ref):                    # (iv)
            result.add_hidden(ref)
            return "hidden"
        return "ignored"                                                    # (v)


def discover_rhs(
    database: Database,
    lhs: Sequence[AttributeRef],
    hidden: Sequence[AttributeRef],
    expert: Optional[Expert] = None,
) -> RHSDiscoveryResult:
    """One-shot convenience wrapper around :class:`RHSDiscovery`."""
    return RHSDiscovery(database, expert).run(lhs, hidden)
