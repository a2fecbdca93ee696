"""The relational-algebra primitives the DBRE method queries with.

§2 of the paper defines ``||r[X]||`` as ``select count distinct X from R``
and uses three counts per equi-join: ``N_k = ||r_k[A_k]||``,
``N_l = ||r_l[A_l]||`` and ``N_kl = ||r_k[A_k] ⋈ r_l[A_l]||``.  Because an
equi-join matches on value equality, ``N_kl`` is exactly the cardinality of
the intersection of the two distinct value sets — that is how this module
computes it.  NULL follows SQL: it is skipped by ``count distinct`` and
never joins.
"""

from __future__ import annotations

from itertools import compress, count, islice
from operator import itemgetter, ne
from typing import Any, FrozenSet, List, Sequence, Set, Tuple

from repro.exceptions import ArityError
from repro.relational.domain import has_null, is_null
from repro.relational.schema import RelationSchema
from repro.relational.table import Row, Table

ValueTuple = Tuple[Any, ...]


def project(table: Table, attrs: Sequence[str]) -> List[ValueTuple]:
    """``r[Y]`` as a list (bag semantics — duplicates preserved)."""
    key_of = table.schema.projector(attrs)
    return [key_of(row.values) for row in table]


def distinct_values(table: Table, attrs: Sequence[str]) -> Set[ValueTuple]:
    """The distinct, fully non-NULL projections of *table* on *attrs*.

    Tuples with a NULL in any projected position are excluded, matching
    SQL ``count(distinct ...)`` and FK-join behaviour.
    """
    key_of = table.schema.projector(attrs)
    projections = {key_of(row.values) for row in table}
    return {values for values in projections if not has_null(values)}


def count_distinct(table: Table, attrs: Sequence[str]) -> int:
    """``||r[X]||`` — the paper's distinct-count primitive."""
    return len(distinct_values(table, attrs))


def equijoin_match_count(
    left: Table,
    left_attrs: Sequence[str],
    right: Table,
    right_attrs: Sequence[str],
) -> int:
    """``N_kl = ||r_k[A_k] ⋈ r_l[A_l]||``.

    The distinct count over the join column(s) equals the cardinality of
    the intersection of the two distinct value sets; computing it that way
    is both faithful to the paper's use and O(|r_k| + |r_l|).
    """
    if len(left_attrs) != len(right_attrs):
        raise ArityError(
            f"equi-join arity mismatch: {list(left_attrs)} vs {list(right_attrs)}"
        )
    return len(distinct_values(left, left_attrs) & distinct_values(right, right_attrs))


def natural_intersection(
    left: Table,
    left_attrs: Sequence[str],
    right: Table,
    right_attrs: Sequence[str],
) -> Set[ValueTuple]:
    """The shared distinct value combinations of the two sides."""
    if len(left_attrs) != len(right_attrs):
        raise ArityError(
            f"equi-join arity mismatch: {list(left_attrs)} vs {list(right_attrs)}"
        )
    return distinct_values(left, left_attrs) & distinct_values(right, right_attrs)


def select_equal(table: Table, attr: str, value: Any) -> List[Row]:
    """``σ_{attr = value}(r)`` with SQL semantics: NULL never matches."""
    if is_null(value):
        return []
    return [row for row in table if not is_null(row[attr]) and row[attr] == value]


def values_subset(
    left: Table,
    left_attrs: Sequence[str],
    right: Table,
    right_attrs: Sequence[str],
) -> bool:
    """True when ``r_left[A] ⊆ r_right[B]`` (NULL-bearing tuples skipped).

    This is the satisfaction test for an inclusion dependency
    ``R_left[A] ≪ R_right[B]`` under SQL foreign-key semantics.
    """
    if len(left_attrs) != len(right_attrs):
        raise ArityError(
            f"inclusion arity mismatch: {list(left_attrs)} vs {list(right_attrs)}"
        )
    return distinct_values(left, left_attrs) <= distinct_values(right, right_attrs)


def group_by(table: Table, attrs: Sequence[str]) -> dict:
    """Partition rows by their (non-NULL) projection on *attrs*.

    Rows with a NULL in the grouping attributes are dropped, consistent
    with the FD-satisfaction convention documented in DESIGN.md.
    """
    key_of = table.schema.projector(attrs)
    groups: dict = {}
    for row in table:
        groups.setdefault(key_of(row.values), []).append(row)
    return {key: rows for key, rows in groups.items() if not has_null(key)}


def functional_maps(table: Table, lhs: Sequence[str], rhs: Sequence[str]) -> bool:
    """True when ``lhs -> rhs`` holds in *table*.

    Single-pass partition check: every group of tuples agreeing on *lhs*
    must agree on *rhs*.  NULL on the RHS is treated as an ordinary marked
    value (two NULLs agree) so that wholly-missing optional attributes do
    not spuriously break dependencies; NULL-bearing LHS tuples are skipped.
    """
    key_of = table.schema.projector(lhs)
    image_of = table.schema.projector(rhs)
    witness: dict = {}
    for row in table:
        values = row.values
        key = key_of(values)
        image = image_of(values)
        if witness.setdefault(key, image) != image and not has_null(key):
            return False
    return True


def fd_violation_pairs(
    table: Table, lhs: Sequence[str], rhs: Sequence[str], limit: int = 10
) -> List[Tuple[Row, Row]]:
    """Up to *limit* pairs of tuples witnessing that ``lhs -> rhs`` fails.

    Each pair is the first row of an LHS group and a later row of the
    group with a different RHS image, in scan order.  Used to show the
    expert user *why* a presumed dependency does not hold before asking
    whether to enforce it anyway.  A failing dependency always yields
    its first pair, even for a *limit* below one.
    """
    return lhs_grouping(table, lhs).witnesses(rhs, limit)


class LHSGrouping:
    """The rows of one table grouped by an LHS: the RHS-evidence kernel.

    Rows with a NULL in the LHS are dropped.  ``rows`` keeps the others
    in scan order (``values`` their value tuples), ``firsts[i]`` is the
    position in ``rows`` of the first row of row ``i``'s group, and
    ``groups`` counts the groups.  Each RHS is answered from one
    *mismatch mask* — ``mask[i]`` is true when row ``i``'s RHS image
    differs from its group's first image — built and read by C-level
    passes; the last mask is kept, so the ratio and the witnesses of one
    dependency share it.
    """

    __slots__ = ("schema", "rows", "values", "firsts", "groups", "_last")

    def __init__(self, table: Table, lhs: Tuple[str, ...]) -> None:
        schema = table.schema
        rows = list(table)
        values = [row.values for row in rows]
        positions = [schema.position(a) for a in lhs]
        key_of = _column(schema, lhs)
        if any(has_null(map(itemgetter(p), values)) for p in positions):
            project = schema.projector(lhs)
            kept = [i for i, v in enumerate(values) if not has_null(project(v))]
            rows = [rows[i] for i in kept]
            values = [values[i] for i in kept]
        keys = list(map(key_of, values))
        # filled back to front, so each key keeps its first position
        first_of = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        self.schema: RelationSchema = schema
        self.rows: List[Row] = rows
        self.values: List[ValueTuple] = values
        self.firsts: List[int] = list(map(first_of.__getitem__, keys))
        self.groups = len(first_of)
        self._last: Any = None

    def mask(self, rhs: Sequence[str]) -> List[bool]:
        """Per kept row: does its RHS image differ from its group's first?"""
        rhs = tuple(rhs)
        if self._last is not None and self._last[0] == rhs:
            return self._last[1]
        column = list(map(_column(self.schema, rhs), self.values))
        mask = list(map(ne, column, map(column.__getitem__, self.firsts)))
        self._last = (rhs, mask)
        return mask

    def ratio(self, rhs: Sequence[str]) -> float:
        """Fraction of groups single-valued on *rhs*; 1.0 without groups."""
        if not self.groups:
            return 1.0
        dirty = len(set(compress(self.firsts, self.mask(rhs))))
        return (self.groups - dirty) / self.groups

    def witnesses(self, rhs: Sequence[str], limit: int) -> List[Tuple[Row, Row]]:
        """The first ``max(limit, 1)`` mismatching rows, with their firsts."""
        rows, firsts = self.rows, self.firsts
        mismatches = compress(count(), self.mask(rhs))
        return [(rows[firsts[i]], rows[i]) for i in islice(mismatches, max(limit, 1))]


def _column(schema: RelationSchema, attrs: Tuple[str, ...]):
    """A row-values getter: the bare value for one attribute, else a tuple.

    Bare values compare as tuple components do — NULL equals only NULL —
    now that no stored value is NaN (REAL coerces it to NULL).
    """
    if len(attrs) == 1:
        return itemgetter(schema.position(attrs[0]))
    return schema.projector(attrs)


def lhs_grouping(table: Table, lhs: Sequence[str]) -> LHSGrouping:
    """*table* grouped by *lhs*, memoised on the table.

    The table holds one entry, guarded by its ``(version, row count)``
    and the LHS; any write, or a grouping by another LHS, replaces it.
    """
    lhs = tuple(lhs)
    token = (table.version, len(table), lhs)
    memo = table.grouping_memo
    if memo is not None and memo[0] == token:
        return memo[1]
    grouping = LHSGrouping(table, lhs)
    table.grouping_memo = (token, grouping)
    return grouping


def missing_values(
    left: Table,
    left_attrs: Sequence[str],
    right: Table,
    right_attrs: Sequence[str],
) -> FrozenSet[ValueTuple]:
    """Left-side distinct values with no right-side match (IND witnesses)."""
    return frozenset(
        distinct_values(left, left_attrs) - distinct_values(right, right_attrs)
    )
