"""Tables (relation extensions) and rows.

A :class:`Table` is the extension ``r_i`` of a relation: an ordered
multiset of typed rows.  The method's primitive queries — projection,
``count distinct``, equi-join counts — are in
:mod:`repro.relational.algebra`; the table itself only stores and
validates tuples.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple, Union

from repro.exceptions import ArityError, UnknownAttributeError
from repro.relational.domain import NULL, is_null
from repro.relational.schema import RelationSchema, tuple_getter


def order_values(
    schema: RelationSchema, values: Union[Sequence[Any], Mapping[str, Any]]
) -> List[Any]:
    """Normalize positional-or-named *values* into schema attribute order.

    Missing attributes in a mapping default to NULL; unknown names raise.
    Shared by :meth:`Table.insert` and the extension backends, so every
    write path accepts the same two input shapes.
    """
    if isinstance(values, Mapping):
        unknown = set(values) - set(schema.attribute_names)
        if unknown:
            raise UnknownAttributeError(schema.name, sorted(unknown)[0])
        return [values.get(a, NULL) for a in schema.attribute_names]
    return list(values)


class Row:
    """One tuple of a table, addressable by attribute name or position."""

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: RelationSchema, values: Sequence[Any]) -> None:
        attributes = schema.attributes
        if len(values) != len(attributes):
            raise ArityError(
                f"{schema.name} expects {len(attributes)} values, "
                f"got {len(values)}"
            )
        self._schema = schema
        self._values: Tuple[Any, ...] = tuple(
            [attr.dtype.coerce(value) for attr, value in zip(attributes, values)]
        )

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def values(self) -> Tuple[Any, ...]:
        return self._values

    def __getitem__(self, key: Union[str, int]) -> Any:
        if isinstance(key, int):
            return self._values[key]
        return self._values[self._schema.position(key)]

    def project(self, attrs: Iterable[str]) -> Tuple[Any, ...]:
        """``t[Y]`` — the projection of this tuple on the attributes *attrs*."""
        return tuple(self[a] for a in attrs)

    def has_null(self, attrs: Iterable[str]) -> bool:
        return any(is_null(self[a]) for a in attrs)

    def as_dict(self) -> Dict[str, Any]:
        return {a.name: v for a, v in zip(self._schema.attributes, self._values)}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return other._schema.name == self._schema.name and other._values == self._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Row", self._schema.name, self._values))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a.name}={v!r}" for a, v in zip(self._schema.attributes, self._values))
        return f"({inner})"


def bind_rows(
    schema: RelationSchema, values: Iterable[Tuple[Any, ...]]
) -> List[Row]:
    """Rows over already-validated value tuples, bound to *schema*.

    The trusted constructor behind same-kind copies and projections:
    no arity check and no :meth:`~repro.relational.domain.DataType.coerce`
    — every tuple must already be exactly what :class:`Row` would store
    for *schema*.  Rows are immutable, so the tuples themselves may be
    shared with the rows they came from.
    """
    new = Row.__new__
    rows: List[Row] = []
    append = rows.append
    for vals in values:
        row = new(Row)
        row._schema = schema
        row._values = vals
        append(row)
    return rows


#: a row's value tuple
_VALUES = attrgetter("_values")


class Scan:
    """One pass over a relation's extension, in the backend's row order.

    ``tuples`` yields one value tuple per stored row, laid out as
    ``layout`` says: position ``i`` holds attribute ``layout[i]``.  A
    backend may hand out more attributes than were asked for — the
    memory backend hands out its stored tuples, zero-copy — so consumers
    read the tuples through :meth:`column` and :meth:`projector`, never
    by raw position.  The tuples can be iterated once unless a consumer
    lists them.  :meth:`rows` turns some tuples of a whole-row scan back
    into :class:`Row` objects (the witnesses shown to the expert)
    without touching the store again.
    """

    __slots__ = ("schema", "layout", "tuples", "_index")

    def __init__(
        self,
        schema: RelationSchema,
        layout: Sequence[str],
        tuples: Iterable[Tuple[Any, ...]],
    ) -> None:
        self.schema = schema
        self.layout: Tuple[str, ...] = tuple(layout)
        self.tuples = tuples
        self._index = {a: i for i, a in enumerate(self.layout)}

    @property
    def relation(self) -> str:
        return self.schema.name

    def position(self, attr: str) -> int:
        """Where *attr* sits in each tuple."""
        try:
            return self._index[attr]
        except KeyError:
            raise UnknownAttributeError(self.schema.name, attr) from None

    def column(self, attrs: Sequence[str]) -> Callable[[Tuple[Any, ...]], Any]:
        """A tuple getter: the bare value for one attribute, else a tuple.

        Bare values compare as tuple components do — NULL equals only
        NULL — now that no stored value is NaN (REAL coerces it to NULL).
        """
        if len(attrs) == 1:
            return itemgetter(self.position(attrs[0]))
        return self.projector(attrs)

    def projector(self, attrs: Iterable[str]) -> Callable[[Tuple[Any, ...]], Tuple[Any, ...]]:
        """A tuple getter returning the projection on *attrs*, as a tuple."""
        return tuple_getter([self.position(a) for a in attrs])

    def rows(self, picked: Sequence[Tuple[Any, ...]]) -> List[Row]:
        """The *picked* tuples of a whole-row scan as rows of its relation.

        The tuples were decoded on the way out of the store, so they are
        bound as they are; a scan that carries only some attributes
        cannot rebuild a row and raises ValueError.
        """
        if self.layout != self.schema.attribute_names:
            raise ValueError(
                f"rows need a whole-row scan of {self.schema.name}, "
                f"not one of {list(self.layout)}"
            )
        return bind_rows(self.schema, picked)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.tuples)


class Table:
    """The extension of one relation: an ordered list of rows.

    Insertion validates typing immediately; declared-constraint checking
    (unique / not null) is *optional and explicit* via :meth:`validate`,
    because the whole point of the paper is that legacy extensions may be
    corrupted — the engine must be able to hold dirty data.
    """

    #: process-wide generation source; every Table instance draws a fresh
    #: value, so two tables that ever coexisted (even under the same
    #: relation name, e.g. drop + recreate) are distinguishable
    _generations = itertools.count(1)

    def __init__(self, schema: RelationSchema, rows: Iterable[Sequence[Any]] = ()) -> None:
        self._schema = schema
        self._rows: List[Row] = []
        #: monotonically increasing mutation counter; the database layer
        #: keys its distinct-value caches on it, so any write (insert,
        #: delete, replace) invalidates derived statistics automatically
        self.version = 0
        #: instance identity for cache guards: a recreated or re-homed
        #: table can reach the same *version* as its predecessor (three
        #: inserts → version 3 either way), so caches must key on the
        #: (generation, version) pair, never on the version alone
        self.generation = next(Table._generations)
        for r in rows:
            self.insert(r)

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def name(self) -> str:
        return self._schema.name

    def insert(self, values: Union[Sequence[Any], Mapping[str, Any]]) -> Row:
        """Append one tuple, given positionally or by attribute name.

        Missing attributes in a mapping default to NULL.
        """
        row = Row(self._schema, order_values(self._schema, values))
        self._rows.append(row)
        self.version += 1
        return row

    def insert_many(self, rows: Iterable[Union[Sequence[Any], Mapping[str, Any]]]) -> None:
        for r in rows:
            self.insert(r)

    def replace_rows(self, rows: Iterable[Sequence[Any]]) -> None:
        """Replace the whole extension (used by corruption injection)."""
        fresh: List[Row] = [Row(self._schema, list(r)) for r in rows]
        self._rows = fresh
        self.version += 1

    def delete_where(self, predicate) -> int:
        """Remove rows for which *predicate(row)* is true; return the count."""
        kept = [r for r in self._rows if not predicate(r)]
        removed = len(self._rows) - len(kept)
        self._rows = kept
        if removed:
            self.version += 1
        return removed

    def validate(self) -> None:
        """Check every declared constraint; raise on the first violation."""
        for u in self._schema.uniques:
            u.check(self)
        for nn in self._schema.not_nulls:
            nn.check(self)

    def violations(self) -> List[str]:
        """All declared-constraint violations, as human-readable strings."""
        problems: List[str] = []
        for constraint in list(self._schema.uniques) + list(self._schema.not_nulls):
            try:
                constraint.check(self)
            except Exception as exc:  # ConstraintViolationError
                problems.append(str(exc))
        return problems

    def with_schema(self, schema: RelationSchema) -> "Table":
        """Re-home the rows under a (possibly narrower) schema.

        Used by Restruct: when ``B_i`` is removed from ``R_i(X_i)``, the
        extension is projected accordingly (duplicates kept — the logical
        schema restructuring in the paper does not deduplicate) — and by
        the same-kind :meth:`Database.copy`, which re-homes every table
        under an identical schema.  The rows were validated when they
        entered this table, so only the columns whose domain changes are
        coerced (INTEGER → REAL widens, REAL → INTEGER raises); on both
        callers' paths none does.  The new table carries a fresh
        generation *and* resumes from this table's version, so
        version-guarded caches can never mistake it for its source.
        """
        source = self._schema
        names = schema.attribute_names
        coercers = [
            (i, attr.dtype.coerce)
            for i, attr in enumerate(schema.attributes)
            if attr.dtype != source.attribute(attr.name).dtype
        ]
        if tuple(names) == tuple(source.attribute_names) and not coercers:
            values: Iterable[Tuple[Any, ...]] = [row.values for row in self._rows]
        else:
            project = source.projector(names)
            values = [project(row.values) for row in self._rows]
            if coercers:
                values = [_coerced(v, coercers) for v in values]
        table = Table(schema)
        table._rows = bind_rows(schema, values)
        table.version = self.version + len(table._rows)
        return table

    def scan(self, attrs: Sequence[str] = ()) -> "Scan":
        """The stored value tuples, zero-copy, as a :class:`Scan`.

        Every tuple is a whole row, whatever *attrs* asks for; *attrs*
        only checks that the names exist.
        """
        schema = self._schema
        for a in attrs:
            schema.position(a)  # raises UnknownAttributeError
        return Scan(schema, schema.attribute_names, map(_VALUES, self._rows))

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: int) -> Row:
        return self._rows[index]

    def __repr__(self) -> str:
        return f"Table({self._schema.name}, {len(self._rows)} rows)"


def _coerced(values: Tuple[Any, ...], coercers) -> Tuple[Any, ...]:
    """*values* with each ``(position, coerce)`` of *coercers* applied."""
    out = list(values)
    for i, coerce in coercers:
        out[i] = coerce(out[i])
    return tuple(out)
