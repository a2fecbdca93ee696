"""Satisfaction of functional dependencies against a database extension.

RHS-Discovery's inner test ``A -> b holds in r_i`` (step (i) of the
algorithm) is implemented here, together with batch helpers the
evaluation layer uses to audit an elicited dependency set against the
data.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from repro.dependencies.fd import FunctionalDependency
from repro.relational.algebra import LHSGrouping, functional_maps, lhs_grouping
from repro.relational.database import Database
from repro.relational.table import Row, Table


def fd_satisfied(table: Table, fd: FunctionalDependency) -> bool:
    """True when *fd* holds in *table* (NULL-LHS tuples skipped)."""
    return functional_maps(table, tuple(fd.lhs), tuple(fd.rhs))


def fd_satisfied_in(database: Database, fd: FunctionalDependency) -> bool:
    """Instrumented variant counting the extension access."""
    return database.fd_holds(fd.relation, tuple(fd.lhs), tuple(fd.rhs))


def fds_satisfied(database: Database, fds: Sequence[FunctionalDependency]) -> bool:
    """True when every FD of *fds* holds in *database*."""
    return all(fd_satisfied_in(database, fd) for fd in fds)


def violating_fds(
    database: Database, fds: Sequence[FunctionalDependency]
) -> List[FunctionalDependency]:
    """The subset of *fds* that the extension falsifies."""
    return [fd for fd in fds if not fd_satisfied_in(database, fd)]


def _grouping(source: Union[Table, LHSGrouping], fd: FunctionalDependency) -> LHSGrouping:
    """*source* if it is a grouping by ``fd.lhs``, else *source* grouped so."""
    if not isinstance(source, LHSGrouping):
        return lhs_grouping(source, fd.lhs)
    if source.lhs != tuple(fd.lhs):
        raise ValueError(
            f"a grouping by {list(source.lhs)} cannot answer {fd!r}"
        )
    return source


def violation_witnesses(
    source: Union[Table, LHSGrouping], fd: FunctionalDependency, limit: int = 5
) -> List[Tuple[Row, Row]]:
    """Tuple pairs proving *fd* fails — shown to the expert user.

    *source* is a table, or a grouping by ``fd.lhs``
    (:func:`~repro.relational.algebra.lhs_grouping`) whose scan carries
    ``fd.rhs``.
    """
    return _grouping(source, fd).witnesses(tuple(fd.rhs), limit)


def satisfaction_ratio(source: Union[Table, LHSGrouping], fd: FunctionalDependency) -> float:
    """Fraction of LHS groups that are single-valued on the RHS.

    1.0 means the FD holds; values just under 1.0 suggest a true
    dependency marred by a few dirty tuples — exactly the situation where
    the paper lets the expert *enforce* the dependency (RHS-Discovery
    step (ii)).  An empty table (or all-NULL LHS) yields 1.0.

    *source* is as for :func:`violation_witnesses`; RHS-Discovery hands
    both one grouping per identifier, so a dependency's ratio and
    witnesses share one mismatch mask.
    """
    return _grouping(source, fd).ratio(tuple(fd.rhs))
