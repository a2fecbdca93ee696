"""The equi-join value object ``R_k[A_k] ⋈ R_l[A_l]``.

Equi-joins are symmetric: ``R[a] ⋈ S[b]`` and ``S[b] ⋈ R[a]`` are the same
element of ``Q``.  Attribute order within a side is significant only
through the pairing (position i on the left joins position i on the
right), exactly as for inclusion dependencies.

Instances are immutable: no code assigns a field after construction, so
the canonical identity key is computed once, in ``__init__``, and ``==``,
``hash`` and :meth:`EquiJoin.sort_key` read it.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.exceptions import SchemaError
from repro.relational.attribute import AttributeRef


class EquiJoin:
    """A (symmetric) equi-join between two attribute lists."""

    __slots__ = ("left_relation", "left_attrs", "right_relation", "right_attrs", "_key")

    def __init__(
        self,
        left_relation: str,
        left_attrs: Iterable[str],
        right_relation: str,
        right_attrs: Iterable[str],
    ) -> None:
        if isinstance(left_attrs, str):
            left_attrs = (left_attrs,)
        if isinstance(right_attrs, str):
            right_attrs = (right_attrs,)
        left_attrs = tuple(left_attrs)
        right_attrs = tuple(right_attrs)
        if len(left_attrs) != len(right_attrs):
            raise SchemaError(
                f"equi-join arity mismatch: {left_attrs} vs {right_attrs}"
            )
        if not left_attrs:
            raise SchemaError("equi-join needs at least one attribute pair")
        # canonical side order: smaller (relation, attrs) first, so the
        # symmetric pairs hash identically
        left_key = (left_relation, tuple(sorted(left_attrs)))
        right_key = (right_relation, tuple(sorted(right_attrs)))
        if right_key < left_key:
            left_relation, right_relation = right_relation, left_relation
            left_attrs, right_attrs = right_attrs, left_attrs
        # canonicalize pairing order by the left attribute names
        pairs = sorted(zip(left_attrs, right_attrs))
        if left_key == right_key:
            # the sides tie (a self-join over one attribute set), so both
            # orientations are this join: keep the one that sorts smaller
            pairs = min(pairs, sorted((r, l) for l, r in pairs))
        self.left_relation = left_relation
        self.left_attrs: Tuple[str, ...] = tuple(p[0] for p in pairs)
        self.right_relation = right_relation
        self.right_attrs: Tuple[str, ...] = tuple(p[1] for p in pairs)
        self._key = (
            self.left_relation,
            self.left_attrs,
            self.right_relation,
            self.right_attrs,
        )

    @classmethod
    def parse(cls, text: str) -> "EquiJoin":
        """Parse the paper's written form ``"R[a, b] >< S[x, y]"``.

        ``⋈`` is written ``><`` in ASCII.
        """
        if "><" not in text:
            raise SchemaError(f"not an equi-join: {text!r}")
        left, right = text.split("><", 1)

        def side(chunk: str):
            chunk = chunk.strip()
            if "[" not in chunk or not chunk.endswith("]"):
                raise SchemaError(f"malformed equi-join side: {chunk!r}")
            rel, attrs = chunk[:-1].split("[", 1)
            return rel.strip(), tuple(a.strip() for a in attrs.split(",") if a.strip())

        lrel, lattrs = side(left)
        rrel, rattrs = side(right)
        return cls(lrel, lattrs, rrel, rattrs)

    # ------------------------------------------------------------------
    def left_ref(self) -> AttributeRef:
        return AttributeRef(self.left_relation, self.left_attrs)

    def right_ref(self) -> AttributeRef:
        return AttributeRef(self.right_relation, self.right_attrs)

    def sides(self) -> Tuple[Tuple[str, Tuple[str, ...]], Tuple[str, Tuple[str, ...]]]:
        """((relation, attrs), (relation, attrs)) in canonical order."""
        return (
            (self.left_relation, self.left_attrs),
            (self.right_relation, self.right_attrs),
        )

    def is_self_join(self) -> bool:
        return self.left_relation == self.right_relation

    def involves(self, relation: str) -> bool:
        return relation in (self.left_relation, self.right_relation)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EquiJoin):
            return other._key == self._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("EquiJoin",) + self._key)

    def __repr__(self) -> str:
        return (
            f"{self.left_relation}[{', '.join(self.left_attrs)}] >< "
            f"{self.right_relation}[{', '.join(self.right_attrs)}]"
        )

    def sort_key(self) -> Tuple[str, Tuple[str, ...], str, Tuple[str, ...]]:
        """The canonical form: both sides in canonical order."""
        return self._key
