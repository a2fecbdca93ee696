"""Restruct (§7): from a 1NF schema + elicited dependencies to 3NF.

Two passes over the database:

1. **Hidden objects** — each ``R_i.A_i ∈ H`` becomes a new relation
   ``R_p(A_i)`` (keyed by ``A_i``, populated with the distinct values of
   ``r_i[A_i]``); the inclusion dependency ``R_i[A_i] ≪ R_p[A_i]`` is
   added and every other occurrence of ``R_i[A_i]`` in the IND set is
   redirected to ``R_p[A_i]``.
2. **FD splits** — each ``R_i : A_i -> B_i ∈ F`` becomes a new relation
   ``R_p(A_i B_i)`` keyed by ``A_i``; ``B_i`` is removed from ``R_i``;
   ``R_i[A_i] ≪ R_p[A_i]`` is added and occurrences of ``R_i`` sides
   within ``A_i ∪ B_i`` are redirected to ``R_p``.

Finally ``RIC`` — the referential integrity constraints — is the subset
of the rewritten IND set whose right-hand side is a key.

The expert user names the new relations (``Employee``, ``Other-Dept``,
``Manager``, ``Project`` in the paper's example).  Processing order is
deterministic: ``H`` sorted, then ``F`` sorted; DESIGN.md records why the
paper's example is order-insensitive here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.expert import Expert

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.provenance import ProvenanceLedger
from repro.dependencies.fd import FunctionalDependency
from repro.dependencies.ind import InclusionDependency
from repro.normalization.certificate import (
    DecompositionCertificate,
    DecompositionStep,
)
from repro.normalization.engine import certify_decomposition
from repro.relational.algebra import distinct_values
from repro.relational.attribute import Attribute, AttributeRef
from repro.relational.database import Database
from repro.relational.domain import has_null
from repro.relational.schema import RelationSchema


@dataclass(frozen=True)
class AddedRelation:
    """Provenance of a relation created by Restruct."""

    name: str
    kind: str                      # "hidden" | "fd"
    source: str                    # originating relation R_i
    attributes: Tuple[str, ...]


@dataclass
class RestructResult:
    """The restructured database with its keys and integrity constraints."""

    database: Database
    inds: List[InclusionDependency] = field(default_factory=list)
    ric: List[InclusionDependency] = field(default_factory=list)
    added: List[AddedRelation] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    #: one machine-checkable certificate per FD-decomposed relation
    certificates: List[DecompositionCertificate] = field(default_factory=list)

    def key_set(self) -> List[AttributeRef]:
        """The final ``K``."""
        return self.database.schema.key_set()

    def relation_names(self) -> List[str]:
        return self.database.schema.relation_names

    def __repr__(self) -> str:
        return (
            f"RestructResult({len(self.relation_names())} relations, "
            f"{len(self.ric)} RICs)"
        )


class Restruct:
    """Runs the Restruct algorithm; mutates the database it is given.

    Callers that need the original afterwards should pass
    ``database.copy()``.
    """

    def __init__(
        self,
        database: Database,
        expert: Optional[Expert] = None,
        ledger: Optional["ProvenanceLedger"] = None,
    ) -> None:
        self.database = database
        self.expert = expert or Expert()
        self.ledger = ledger

    def run(
        self,
        fds: Sequence[FunctionalDependency],
        hidden: Sequence[AttributeRef],
        inds: Sequence[InclusionDependency],
    ) -> RestructResult:
        result = RestructResult(self.database)
        working: List[InclusionDependency] = sorted(
            set(inds), key=lambda i: i.sort_key()
        )
        # snapshot every relation's pre-restruct universe and key, so
        # each FD decomposition can be certified against the original
        snapshot = {
            relation.name: (
                tuple(relation.attribute_names),
                tuple(relation.uniques[0].attributes)
                if relation.uniques
                else tuple(relation.attribute_names),
            )
            for relation in self.database.schema
        }

        for ref in sorted(set(hidden), key=lambda r: r.sort_key()):
            working = self._materialize_hidden(ref, working, result)

        ordered_fds = sorted(set(fds), key=lambda f: f.sort_key())
        for fd in ordered_fds:
            working = self._split_fd(fd, working, result)
        self._certify_splits(ordered_fds, snapshot, result)

        result.inds = sorted(set(working), key=lambda i: i.sort_key())
        result.ric = [
            ind
            for ind in result.inds
            if ind.rhs_relation in self.database.schema
            and self.database.schema.relation(ind.rhs_relation).is_key(ind.rhs_attrs)
        ]
        if self.ledger is not None:
            for ind in result.ric:
                ind_id = self.ledger.node("ind", repr(ind))
                ric_id = self.ledger.node("ric", repr(ind))
                self.ledger.link(ind_id, ric_id, "promoted")
        return result

    # ------------------------------------------------------------------
    # pass 1: hidden objects
    # ------------------------------------------------------------------
    def _materialize_hidden(
        self,
        ref: AttributeRef,
        working: List[InclusionDependency],
        result: RestructResult,
    ) -> List[InclusionDependency]:
        source = self.database.schema.relation(ref.relation)
        attrs = tuple(ref.attributes)
        name = self.expert.name_hidden_object(
            ref, tuple(self.database.schema.relation_names)
        )
        new_schema = RelationSchema(
            name,
            [
                Attribute(a, source.attribute(a).dtype, nullable=False)
                for a in attrs
            ],
        )
        new_schema.declare_unique(attrs)          # add R_p.A_i to K
        table = self.database.create_relation(new_schema)
        for values in self._distinct_projection(ref.relation, attrs):
            table.insert(list(values))
        result.added.append(AddedRelation(name, "hidden", ref.relation, attrs))

        # redirect existing occurrences of R_i[A_i], then add the link
        working = self._redirect(
            working, ref.relation, set(attrs), name, exact=True
        )
        link = InclusionDependency(ref.relation, attrs, name, attrs)
        working.append(link)
        if self.ledger is not None:
            rel_id = self.ledger.node(
                "relation", name, origin="hidden", source=repr(ref)
            )
            cand_id = self.ledger.node("candidate", repr(ref))
            self.ledger.link(cand_id, rel_id, "materialized")
            naming = self.ledger.last_decision()
            if naming is not None:
                self.ledger.link(naming, rel_id, "named")
            link_id = self.ledger.node("ind", repr(link))
            self.ledger.link(rel_id, link_id, "links")
        return working

    # ------------------------------------------------------------------
    # pass 2: FD splits
    # ------------------------------------------------------------------
    def _split_fd(
        self,
        fd: FunctionalDependency,
        working: List[InclusionDependency],
        result: RestructResult,
    ) -> List[InclusionDependency]:
        source = self.database.schema.relation(fd.relation)
        lhs = tuple(a for a in source.attribute_names if a in fd.lhs)
        rhs = tuple(a for a in source.attribute_names if a in fd.rhs)
        name = self.expert.name_fd_relation(
            fd, tuple(self.database.schema.relation_names)
        )
        new_schema = RelationSchema(
            name,
            [
                # the key side becomes not-null via declare_unique below;
                # the payload keeps its source nullability
                Attribute(
                    a,
                    source.attribute(a).dtype,
                    nullable=a not in lhs and source.attribute(a).nullable,
                )
                for a in lhs + rhs
            ],
        )
        new_schema.declare_unique(lhs)            # add R_p.A_i to K
        table = self.database.create_relation(new_schema)
        for values in self._grouped_projection(fd.relation, lhs, rhs, result):
            table.insert(list(values))
        result.added.append(AddedRelation(name, "fd", fd.relation, lhs + rhs))

        # remove B_i from R_i(X_i)
        self.database.replace_relation(source.without_attributes(rhs))

        # redirect occurrences of R_i sides within A_i ∪ B_i, then link
        working = self._redirect(
            working, fd.relation, set(lhs) | set(rhs), name, exact=False
        )
        link = InclusionDependency(fd.relation, lhs, name, lhs)
        working.append(link)
        if self.ledger is not None:
            rel_id = self.ledger.node(
                "relation", name, origin="fd-split", source=fd.relation
            )
            fd_id = self.ledger.node("fd", repr(fd))
            self.ledger.link(fd_id, rel_id, "split")
            naming = self.ledger.last_decision()
            if naming is not None:
                self.ledger.link(naming, rel_id, "named")
            link_id = self.ledger.node("ind", repr(link))
            self.ledger.link(rel_id, link_id, "links")
        return working

    # ------------------------------------------------------------------
    # certification of the FD decompositions
    # ------------------------------------------------------------------
    def _certify_splits(
        self,
        ordered_fds: Sequence[FunctionalDependency],
        snapshot: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]],
        result: RestructResult,
    ) -> None:
        """One certificate per FD-decomposed relation.

        The decomposition of ``R_i`` is its final residual plus every
        relation split out of it; the input FDs are the elicited FDs on
        ``R_i`` plus its declared-key FD.  The certificate records the
        chase verdict, the preserved/lost dependencies and the normal
        form each fragment attained — independently re-checkable via
        ``verify_certificate``.
        """
        split_added = [a for a in result.added if a.kind == "fd"]
        by_source: Dict[str, List[Tuple[FunctionalDependency, AddedRelation]]] = {}
        for fd, added in zip(ordered_fds, split_added):
            by_source.setdefault(fd.relation, []).append((fd, added))
        for source in sorted(by_source):
            if source not in snapshot:
                result.warnings.append(
                    f"cannot certify decomposition of {source}: relation "
                    f"was not present before restructuring"
                )
                continue
            universe, original_key = snapshot[source]
            input_fds = [
                FunctionalDependency("", tuple(fd.lhs), tuple(fd.rhs))
                for fd, _added in by_source[source]
            ]
            input_fds.append(FunctionalDependency("", original_key, universe))
            residual = self.database.schema.relation(source)
            residual_key = (
                tuple(residual.uniques[0].attributes)
                if residual.uniques
                else tuple(residual.attribute_names)
            )
            fragments = [
                (source, tuple(residual.attribute_names), residual_key)
            ]
            steps = []
            for fd, added in by_source[source]:
                key = tuple(a for a in added.attributes if a in fd.lhs)
                fragments.append((added.name, tuple(added.attributes), key))
                steps.append(
                    DecompositionStep(
                        "restruct-split", f"{fd!r} -> {added.name}"
                    )
                )
            certificate = certify_decomposition(
                source,
                universe,
                fragments,
                input_fds,
                target="3nf",
                steps=steps,
                meta={"phase": "restruct"},
            )
            result.certificates.append(certificate)
            if self.ledger is not None:
                dec_id = self.ledger.node(
                    "decomposition",
                    source,
                    label=f"{source} -> {len(fragments)} fragment(s)",
                    lossless=certificate.lossless,
                    preserved=len(certificate.preserved),
                    lost=len(certificate.lost),
                    target=certificate.target,
                )
                for fd, added in by_source[source]:
                    fd_id = self.ledger.node("fd", repr(fd))
                    self.ledger.link(fd_id, dec_id, "evidence")
                    rel_id = self.ledger.node("relation", added.name)
                    self.ledger.link(dec_id, rel_id, "fragment")
                self.ledger.link(
                    dec_id, self.ledger.node("relation", source), "fragment"
                )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _distinct_projection(
        self, relation: str, attrs: Tuple[str, ...]
    ) -> List[Tuple[object, ...]]:
        """Distinct fully-non-NULL projections, deterministic order."""
        table = self.database.table(relation)
        return sorted(distinct_values(table, attrs), key=repr)

    def _grouped_projection(
        self,
        relation: str,
        lhs: Tuple[str, ...],
        rhs: Tuple[str, ...],
        result: RestructResult,
    ) -> List[Tuple[object, ...]]:
        """Distinct (A_i, B_i) projections, one row per A_i value.

        When the FD was *enforced* over dirty data, several B_i images can
        exist for one A_i; the first (in table order) wins and a warning
        records the conflict.
        """
        table = self.database.table(relation)
        key_of = table.schema.projector(lhs)
        image_of = table.schema.projector(rhs)
        chosen: Dict[Tuple[object, ...], Tuple[object, ...]] = {}
        for row in table:
            values = row.values
            key = key_of(values)
            image = image_of(values)
            first = chosen.setdefault(key, image)
            if first != image and not has_null(key):
                result.warnings.append(
                    f"enforced FD on {relation}: value {key!r} maps to both "
                    f"{first!r} and {image!r}; kept the first"
                )
        return sorted(
            (k + v for k, v in chosen.items() if not has_null(k)), key=repr
        )

    def _redirect(
        self,
        working: List[InclusionDependency],
        relation: str,
        attr_pool: Set[str],
        new_relation: str,
        exact: bool,
    ) -> List[InclusionDependency]:
        """Rewrite IND sides referencing *relation* onto *new_relation*.

        *exact* (hidden-object pass): only sides whose attribute set equals
        *attr_pool* move.  Non-exact (FD pass): any side whose attributes
        all lie within ``A_i ∪ B_i`` moves.  Reflexive results are dropped.
        """

        def remap_side(rel: str, attrs: Tuple[str, ...]) -> Tuple[str, Tuple[str, ...]]:
            if rel != relation:
                return rel, attrs
            attr_set = set(attrs)
            if exact:
                if attr_set == attr_pool:
                    return new_relation, attrs
            elif attr_set <= attr_pool:
                return new_relation, attrs
            return rel, attrs

        out: List[InclusionDependency] = []
        for ind in working:
            l_rel, l_attrs = remap_side(ind.lhs_relation, ind.lhs_attrs)
            r_rel, r_attrs = remap_side(ind.rhs_relation, ind.rhs_attrs)
            if l_rel == r_rel and l_attrs == r_attrs:
                continue  # became reflexive; drop
            rewritten = InclusionDependency(l_rel, l_attrs, r_rel, r_attrs)
            if self.ledger is not None and rewritten != ind:
                old_id = self.ledger.node("ind", repr(ind))
                new_id = self.ledger.node("ind", repr(rewritten))
                self.ledger.link(old_id, new_id, "redirected")
            if rewritten not in out:
                out.append(rewritten)
        return out


def restructure(
    database: Database,
    fds: Sequence[FunctionalDependency],
    hidden: Sequence[AttributeRef],
    inds: Sequence[InclusionDependency],
    expert: Optional[Expert] = None,
) -> RestructResult:
    """One-shot convenience wrapper around :class:`Restruct`."""
    return Restruct(database, expert).run(fds, hidden, inds)
