"""Relation schemas and the database schema ``R``.

A :class:`RelationSchema` is the intension ``R_i(X_i)`` plus its declared
``unique``/``not null`` constraints.  A :class:`DatabaseSchema` is the set
``R`` of relation schemas, with name-based lookup and the computed ``K``
and ``N`` sets of the paper.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import (
    DuplicateRelationError,
    SchemaError,
    UnknownAttributeError,
    UnknownRelationError,
)
from repro.relational.attribute import Attribute, AttributeRef, AttributeSet
from repro.relational.constraints import (
    KeyConstraint,
    NotNullConstraint,
    UniqueConstraint,
    key_attribute_sets,
    not_null_attributes,
)
from repro.relational.domain import DataType, TEXT
from repro.util.naming import is_valid_identifier


def tuple_getter(
    positions: Sequence[int],
) -> Callable[[Sequence[Any]], Tuple[Any, ...]]:
    """A function mapping a value tuple to the tuple at *positions*."""
    if len(positions) < 2:
        # a one-index itemgetter returns the bare value; a slice keeps
        # the tuple
        start = positions[0] if positions else 0
        return itemgetter(slice(start, start + len(positions)))
    return itemgetter(*positions)


class RelationSchema:
    """The intension of one relation: name, attributes, declared constraints."""

    def __init__(
        self,
        name: str,
        attributes: Sequence[Attribute],
        unique: Iterable[Sequence[str]] = (),
    ) -> None:
        if not is_valid_identifier(name):
            raise SchemaError(f"invalid relation name: {name!r}")
        if not attributes:
            raise SchemaError(f"relation {name!r} needs at least one attribute")
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in {name!r}: {names}")
        self.name = name
        self._attributes: Tuple[Attribute, ...] = tuple(attributes)
        self._index: Dict[str, int] = {a.name: i for i, a in enumerate(attributes)}
        self._uniques: List[UniqueConstraint] = []
        for attrs in unique:
            self.declare_unique(attrs)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        name: str,
        attribute_names: Sequence[str],
        key: Sequence[str] = (),
        not_null: Sequence[str] = (),
        types: Optional[Dict[str, DataType]] = None,
    ) -> "RelationSchema":
        """Concise constructor used throughout tests and workloads.

        ``key`` declares one unique constraint; ``not_null`` marks
        attributes non-nullable; ``types`` overrides the TEXT default.
        """
        types = types or {}
        nn = set(not_null) | set(key)  # unique implies not null (§4)
        attrs = [
            Attribute(a, types.get(a, TEXT), nullable=a not in nn)
            for a in attribute_names
        ]
        schema = cls(name, attrs)
        if key:
            schema.declare_unique(key)
        return schema

    def declare_unique(self, attrs: Sequence[str]) -> None:
        """Record a ``unique`` declaration; implies not-null on its attributes."""
        for a in attrs:
            if a not in self._index:
                raise UnknownAttributeError(self.name, a)
        constraint = UniqueConstraint(self.name, attrs)
        if constraint not in self._uniques:
            self._uniques.append(constraint)
        # unique implies not null: reflect it on the attribute objects
        refreshed = [
            attr.with_nullable(False) if attr.name in set(attrs) else attr
            for attr in self._attributes
        ]
        self._attributes = tuple(refreshed)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        return self._attributes

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self._attributes)

    @property
    def uniques(self) -> Tuple[UniqueConstraint, ...]:
        return tuple(self._uniques)

    @property
    def not_nulls(self) -> Tuple[NotNullConstraint, ...]:
        return tuple(
            NotNullConstraint(self.name, a.name)
            for a in self._attributes
            if not a.nullable
        )

    def attribute(self, name: str) -> Attribute:
        try:
            return self._attributes[self._index[name]]
        except KeyError:
            raise UnknownAttributeError(self.name, name) from None

    def has_attribute(self, name: str) -> bool:
        return name in self._index

    def position(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAttributeError(self.name, name) from None

    def projector(
        self, attrs: Iterable[str]
    ) -> Callable[[Sequence[Any]], Tuple[Any, ...]]:
        """A function mapping a row's values to its projection on *attrs*.

        The attribute positions are resolved once, here, so a scan calls
        ``projector(attrs)`` before its loop and applies the result to each
        ``row.values``; unknown names raise now rather than per row.
        """
        return tuple_getter([self.position(a) for a in attrs])

    def keys(self) -> List[KeyConstraint]:
        """The key constraints derivable from the unique declarations."""
        return [KeyConstraint(self.name, u.attributes) for u in self._uniques]

    def primary_key(self) -> Optional[AttributeSet]:
        """The first declared key, by convention the primary one."""
        if self._uniques:
            return self._uniques[0].attributes
        return None

    def is_key(self, attrs: Iterable[str]) -> bool:
        """True when *attrs* is exactly a declared key (as a set)."""
        candidate = AttributeSet(attrs)
        return any(u.attributes == candidate for u in self._uniques)

    def ref(self, attrs: Iterable[str]) -> AttributeRef:
        """A checked ``R.X`` reference into this relation."""
        if isinstance(attrs, str):
            attrs = (attrs,)
        for a in attrs:
            if a not in self._index:
                raise UnknownAttributeError(self.name, a)
        return AttributeRef(self.name, attrs)

    # ------------------------------------------------------------------
    # schema surgery (used by Restruct)
    # ------------------------------------------------------------------
    def without_attributes(self, drop: Iterable[str]) -> "RelationSchema":
        """Copy of this schema with *drop* removed (Restruct's FD split).

        Unique declarations touching a dropped attribute are discarded —
        Restruct never drops key attributes, but the generic operation must
        stay total.
        """
        drop_set = set(drop)
        kept = [a for a in self._attributes if a.name not in drop_set]
        if not kept:
            raise SchemaError(f"cannot drop every attribute of {self.name!r}")
        schema = RelationSchema(self.name, kept)
        for u in self._uniques:
            if u.attributes.isdisjoint(drop_set):
                schema.declare_unique(tuple(u.attributes))
        return schema

    def renamed(self, new_name: str) -> "RelationSchema":
        schema = RelationSchema(new_name, list(self._attributes))
        for u in self._uniques:
            schema.declare_unique(tuple(u.attributes))
        return schema

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        keys = {a for u in self._uniques for a in u.attributes}
        parts = []
        for a in self._attributes:
            mark = "*" if a.name in keys else ("!" if not a.nullable else "")
            parts.append(f"{mark}{a.name}")
        return f"{self.name}({', '.join(parts)})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RelationSchema):
            return (
                other.name == self.name
                and other._attributes == self._attributes
                and set(other._uniques) == set(self._uniques)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RelationSchema", self.name, self._attributes))


class DatabaseSchema:
    """The set ``R`` of relation schemas, with computed ``K`` and ``N``."""

    def __init__(self, relations: Iterable[RelationSchema] = ()) -> None:
        self._relations: Dict[str, RelationSchema] = {}
        for r in relations:
            self.add(r)

    def add(self, relation: RelationSchema) -> None:
        if relation.name in self._relations:
            raise DuplicateRelationError(relation.name)
        self._relations[relation.name] = relation

    def replace(self, relation: RelationSchema) -> None:
        """Swap in a modified schema for an existing relation (Restruct)."""
        if relation.name not in self._relations:
            raise UnknownRelationError(relation.name)
        self._relations[relation.name] = relation

    def remove(self, name: str) -> None:
        if name not in self._relations:
            raise UnknownRelationError(name)
        del self._relations[name]

    def relation(self, name: str) -> RelationSchema:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(sorted(self._relations.values(), key=lambda r: r.name))

    def __len__(self) -> int:
        return len(self._relations)

    @property
    def relation_names(self) -> List[str]:
        return sorted(self._relations)

    def key_set(self) -> List[AttributeRef]:
        """The paper's ``K`` over the whole schema."""
        uniques = [u for r in self for u in r.uniques]
        return key_attribute_sets(uniques)

    def not_null_set(self) -> List[AttributeRef]:
        """The paper's ``N`` over the whole schema."""
        nns = [nn for r in self for nn in r.not_nulls]
        uniques = [u for r in self for u in r.uniques]
        return not_null_attributes(nns, uniques)

    def copy(self) -> "DatabaseSchema":
        clone = DatabaseSchema()
        for r in self:
            clone.add(r.renamed(r.name))
        return clone

    def __repr__(self) -> str:
        return "DatabaseSchema(" + "; ".join(repr(r) for r in self) + ")"
