"""Inclusion dependencies ``R_i[Y] ≪ R_j[Z]``.

The central interrelation-dependency object of the paper.  Attribute
*order* is significant on both sides (position i pairs with position i),
and equality respects pairing rather than raw order: ``R[a,b] ≪ S[x,y]``
equals ``R[b,a] ≪ S[y,x]``.

Instances are immutable: no code assigns a field after construction, so
the pairing-respecting identity key is computed once, in ``__init__``,
and ``==``, ``hash`` and :meth:`InclusionDependency.sort_key` read it.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.exceptions import SchemaError
from repro.relational.attribute import AttributeRef


class InclusionDependency:
    """``lhs_relation[lhs_attrs] ≪ rhs_relation[rhs_attrs]``."""

    __slots__ = ("lhs_relation", "lhs_attrs", "rhs_relation", "rhs_attrs", "_key")

    def __init__(
        self,
        lhs_relation: str,
        lhs_attrs: Iterable[str],
        rhs_relation: str,
        rhs_attrs: Iterable[str],
    ) -> None:
        if isinstance(lhs_attrs, str):
            lhs_attrs = (lhs_attrs,)
        if isinstance(rhs_attrs, str):
            rhs_attrs = (rhs_attrs,)
        self.lhs_relation = lhs_relation
        self.lhs_attrs: Tuple[str, ...] = tuple(lhs_attrs)
        self.rhs_relation = rhs_relation
        self.rhs_attrs: Tuple[str, ...] = tuple(rhs_attrs)
        if len(self.lhs_attrs) != len(self.rhs_attrs):
            raise SchemaError(
                f"inclusion dependency arity mismatch: "
                f"{self.lhs_attrs} vs {self.rhs_attrs}"
            )
        if not self.lhs_attrs:
            raise SchemaError("inclusion dependency needs at least one attribute")
        if len(set(self.lhs_attrs)) != len(self.lhs_attrs):
            raise SchemaError(f"duplicate attributes on left side: {self.lhs_attrs}")
        if len(set(self.rhs_attrs)) != len(self.rhs_attrs):
            raise SchemaError(f"duplicate attributes on right side: {self.rhs_attrs}")
        self._key: Tuple[str, str, Tuple[Tuple[str, str], ...]] = (
            lhs_relation,
            rhs_relation,
            tuple(sorted(zip(self.lhs_attrs, self.rhs_attrs))),
        )

    @classmethod
    def parse(cls, text: str) -> "InclusionDependency":
        """Parse ``"R[a, b] << S[x, y]"`` (the paper's ``≪`` written ``<<``)."""
        if "<<" not in text:
            raise SchemaError(f"not an inclusion dependency: {text!r}")
        left, right = text.split("<<", 1)

        def side(chunk: str) -> Tuple[str, Tuple[str, ...]]:
            chunk = chunk.strip()
            if "[" not in chunk or not chunk.endswith("]"):
                raise SchemaError(f"malformed inclusion side: {chunk!r}")
            rel, attrs = chunk[:-1].split("[", 1)
            names = tuple(a.strip() for a in attrs.split(",") if a.strip())
            return rel.strip(), names

        lrel, lattrs = side(left)
        rrel, rattrs = side(right)
        return cls(lrel, lattrs, rrel, rattrs)

    # ------------------------------------------------------------------
    def lhs_ref(self) -> AttributeRef:
        return AttributeRef(self.lhs_relation, self.lhs_attrs)

    def rhs_ref(self) -> AttributeRef:
        return AttributeRef(self.rhs_relation, self.rhs_attrs)

    def pairs(self) -> Tuple[Tuple[str, str], ...]:
        """The positional (left attr, right attr) correspondences."""
        return tuple(zip(self.lhs_attrs, self.rhs_attrs))

    def is_unary(self) -> bool:
        return len(self.lhs_attrs) == 1

    def reversed(self) -> "InclusionDependency":
        """The opposite-direction dependency (used by expert choices v/vi)."""
        return InclusionDependency(
            self.rhs_relation, self.rhs_attrs, self.lhs_relation, self.lhs_attrs
        )

    def rename_lhs(self, relation: str, attrs: Iterable[str]) -> "InclusionDependency":
        return InclusionDependency(relation, attrs, self.rhs_relation, self.rhs_attrs)

    def rename_rhs(self, relation: str, attrs: Iterable[str]) -> "InclusionDependency":
        return InclusionDependency(self.lhs_relation, self.lhs_attrs, relation, attrs)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, InclusionDependency):
            return other._key == self._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IND",) + self._key)

    def __repr__(self) -> str:
        return (
            f"{self.lhs_relation}[{', '.join(self.lhs_attrs)}] << "
            f"{self.rhs_relation}[{', '.join(self.rhs_attrs)}]"
        )

    def sort_key(self) -> Tuple[str, str, Tuple[Tuple[str, str], ...]]:
        """Pairing-respecting canonical form: ``(lhs, rhs, sorted pairs)``."""
        return self._key
