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
from typing import Any, FrozenSet, List, Sequence, Set, Tuple, Union

from repro.exceptions import ArityError
from repro.relational.domain import has_null, is_null
from repro.relational.table import Row, Scan, Table

ValueTuple = Tuple[Any, ...]


def _scan_of(source: Union[Table, Scan], attrs: Sequence[str]) -> Scan:
    """*source* itself if it is a scan, else a zero-copy scan of the table."""
    return source if isinstance(source, Scan) else source.scan(attrs)


def project(table: Table, attrs: Sequence[str]) -> List[ValueTuple]:
    """``r[Y]`` as a list (bag semantics — duplicates preserved)."""
    key_of = table.schema.projector(attrs)
    return [key_of(row.values) for row in table]


def distinct_values(source: Union[Table, Scan], attrs: Sequence[str]) -> Set[ValueTuple]:
    """The distinct, fully non-NULL projections of *source* on *attrs*.

    *source* is a table or a :class:`~repro.relational.table.Scan`
    carrying *attrs*.  Tuples with a NULL in any projected position are
    excluded, matching SQL ``count(distinct ...)`` and FK-join behaviour.
    """
    scan = _scan_of(source, attrs)
    projections = set(map(scan.projector(attrs), scan))
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
    left: Union[Table, Scan],
    left_attrs: Sequence[str],
    right: Union[Table, Scan],
    right_attrs: Sequence[str],
) -> Set[ValueTuple]:
    """The shared distinct value combinations of the two sides.

    Each side is a table or a scan carrying its attributes.
    """
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
    """One scan of a relation grouped by an LHS: the RHS-evidence kernel.

    Tuples with a NULL in the LHS are dropped.  ``values`` keeps the
    others in scan order, ``firsts[i]`` is the position in ``values`` of
    the first tuple of tuple ``i``'s group, and ``groups`` counts the
    groups.  Each RHS is answered from one *mismatch mask* — ``mask[i]``
    is true when tuple ``i``'s RHS image differs from its group's first
    image — built and read by C-level passes; the last mask is kept, so
    the ratio and the witnesses of one dependency share it.  The scan
    must carry every RHS asked about, and whole rows for witnesses;
    RHS-Discovery groups one whole-row scan per relation, once per
    identifier.
    """

    __slots__ = ("lhs", "scan", "values", "firsts", "groups", "_last")

    def __init__(self, scan: Scan, lhs: Tuple[str, ...]) -> None:
        values = list(scan)
        key_of = scan.column(lhs)
        positions = [scan.position(a) for a in lhs]
        if any(has_null(map(itemgetter(p), values)) for p in positions):
            project = scan.projector(lhs)
            values = [v for v in values if not has_null(project(v))]
        keys = list(map(key_of, values))
        # filled back to front, so each key keeps its first position
        first_of = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        self.lhs = lhs
        self.scan = scan
        self.values: List[ValueTuple] = values
        self.firsts: List[int] = list(map(first_of.__getitem__, keys))
        self.groups = len(first_of)
        self._last: Any = None

    def mask(self, rhs: Sequence[str]) -> List[bool]:
        """Per kept tuple: does its RHS image differ from its group's first?"""
        rhs = tuple(rhs)
        if self._last is not None and self._last[0] == rhs:
            return self._last[1]
        column = list(map(self.scan.column(rhs), self.values))
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
        """The first ``max(limit, 1)`` mismatching rows, with their firsts.

        Only the picked tuples become rows (:meth:`Scan.rows`), so the
        scan must carry whole rows.
        """
        values, firsts = self.values, self.firsts
        mismatches = islice(compress(count(), self.mask(rhs)), max(limit, 1))
        rows = self.scan.rows([values[j] for i in mismatches for j in (firsts[i], i)])
        return list(zip(rows[::2], rows[1::2]))


def lhs_grouping(source: Union[Table, Scan], lhs: Sequence[str]) -> LHSGrouping:
    """*source* (a table, or a scan carrying *lhs*) grouped by *lhs*."""
    lhs = tuple(lhs)
    return LHSGrouping(_scan_of(source, lhs), lhs)


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
