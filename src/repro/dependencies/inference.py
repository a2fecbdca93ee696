"""Satisfaction of functional dependencies against a database extension.

RHS-Discovery's inner test ``A -> b holds in r_i`` (step (i) of the
algorithm) is implemented here, together with batch helpers the
evaluation layer uses to audit an elicited dependency set against the
data.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.dependencies.fd import FunctionalDependency
from repro.relational.algebra import fd_violation_pairs, functional_maps
from repro.relational.database import Database
from repro.relational.domain import has_null
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


def violation_witnesses(
    table: Table, fd: FunctionalDependency, limit: int = 5
) -> List[Tuple[Row, Row]]:
    """Tuple pairs proving *fd* fails — shown to the expert user."""
    return fd_violation_pairs(table, tuple(fd.lhs), tuple(fd.rhs), limit)


def satisfaction_ratio(table: Table, fd: FunctionalDependency) -> float:
    """Fraction of LHS groups that are single-valued on the RHS.

    1.0 means the FD holds; values just under 1.0 suggest a true
    dependency marred by a few dirty tuples — exactly the situation where
    the paper lets the expert *enforce* the dependency (RHS-Discovery
    step (ii)).  An empty table (or all-NULL LHS) yields 1.0.

    One pass: each LHS group keeps only its first RHS image, and a group
    whose later image differs joins the dirty set.
    """
    key_of = table.schema.projector(fd.lhs)
    image_of = table.schema.projector(fd.rhs)
    first: dict = {}
    dirty: set = set()
    for row in table:
        values = row.values
        key = key_of(values)
        image = image_of(values)
        if first.setdefault(key, image) != image:
            dirty.add(key)
    groups = [key for key in first if not has_null(key)]
    if not groups:
        return 1.0
    clean = sum(1 for key in groups if key not in dirty)
    return clean / len(groups)
