"""Dependency discovery from extensions — the exhaustive substrate.

Two discovery primitives live here and back the baselines of §S1/§S2:

- :func:`discover_unary_inds` — test every type-compatible attribute pair,
  the way unary-IND discovery tools (de Marchi et al.; SPIDER; Metanome's
  implementations) approach the problem when no query workload is
  available.  This is what the paper's query-guided IND-Discovery is
  measured against.
- :func:`discover_fds` — a level-wise lattice search for minimal FDs
  (TANE-style, partition-based but simplified) within one relation.  This
  is what RHS-Discovery's narrowing is measured against.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.dependencies.fd import FunctionalDependency
from repro.dependencies.ind import InclusionDependency
from repro.relational.algebra import distinct_values
from repro.relational.database import Database
from repro.relational.domain import comparable, has_null
from repro.relational.table import Table


def discover_unary_inds(
    database: Database,
    max_candidates: Optional[int] = None,
    require_nonempty: bool = True,
) -> List[InclusionDependency]:
    """All satisfied unary INDs between distinct attributes of the schema.

    Candidates are every ordered pair of type-compatible attributes from
    different relations (plus different attributes of the same relation).
    *require_nonempty* skips INDs whose left side projects to the empty
    set — vacuously true but semantically useless.

    Returns the satisfied dependencies; the number of candidate pairs
    examined is exposed via :func:`count_unary_candidates` so benchmarks
    can report the search-space sizes the paper's pruning avoids.
    """
    columns = _typed_columns(database)
    found: List[InclusionDependency] = []
    examined = 0
    for (lrel, lattr, ltype, lvalues) in columns:
        for (rrel, rattr, rtype, rvalues) in columns:
            if lrel == rrel and lattr == rattr:
                continue
            if not comparable(ltype, rtype):
                continue
            examined += 1
            if max_candidates is not None and examined > max_candidates:
                return sorted(found, key=lambda i: i.sort_key())
            if require_nonempty and not lvalues:
                continue
            if lvalues <= rvalues:
                found.append(InclusionDependency(lrel, (lattr,), rrel, (rattr,)))
    return sorted(found, key=lambda i: i.sort_key())


def count_unary_candidates(database: Database) -> int:
    """Size of the exhaustive unary-IND search space for *database*."""
    columns = _typed_columns(database, with_values=False)
    n = 0
    for (lrel, lattr, ltype, _) in columns:
        for (rrel, rattr, rtype, _) in columns:
            if lrel == rrel and lattr == rattr:
                continue
            if comparable(ltype, rtype):
                n += 1
    return n


def _typed_columns(database: Database, with_values: bool = True):
    out = []
    for rel in database.schema:
        table = database.table(rel.name)
        for attr in rel.attributes:
            values: Set[Tuple[object, ...]] = (
                distinct_values(table, (attr.name,)) if with_values else set()
            )
            out.append((rel.name, attr.name, attr.dtype, values))
    return out


# ----------------------------------------------------------------------
# level-wise FD discovery (TANE-lite)
# ----------------------------------------------------------------------

def _partition(table: Table, attrs: Sequence[str]) -> FrozenSet[FrozenSet[int]]:
    """The stripped partition of row indices by their projection on *attrs*.

    Rows with NULL in any grouping attribute are dropped (consistent with
    the FD-satisfaction convention); singleton groups are kept because the
    simplified refinement test below compares group counts directly.
    """
    key_of = table.schema.projector(attrs)
    groups: Dict[Tuple[object, ...], List[int]] = {}
    for idx, row in enumerate(table):
        groups.setdefault(key_of(row.values), []).append(idx)
    return frozenset(frozenset(g) for key, g in groups.items() if not has_null(key))


def _refines(fine: FrozenSet[FrozenSet[int]], coarse_attr_partition) -> bool:
    """True when every group of *fine* lies within one group of *coarse*."""
    owner: Dict[int, int] = {}
    for gid, group in enumerate(coarse_attr_partition):
        for idx in group:
            owner[idx] = gid
    for group in fine:
        owners = {owner.get(idx, -1) for idx in group}
        if len(owners) != 1 or -1 in owners:
            return False
    return True


def discover_fds(
    table: Table,
    max_lhs_size: int = 3,
    universe: Optional[Sequence[str]] = None,
) -> List[FunctionalDependency]:
    """Minimal non-trivial FDs ``X -> a`` of *table* with ``|X| <= max_lhs_size``.

    Level-wise search over the attribute lattice: a candidate ``X -> a``
    holds iff the partition by ``X`` refines the partition by ``a``; once
    ``X -> a`` is found, supersets of ``X`` are not reported for ``a``
    (minimality).  Exponential in the worst case, as FD discovery is — the
    cap keeps benchmarks honest about the cost the paper's method avoids.
    """
    attrs = list(universe or table.schema.attribute_names)
    single_partitions = {a: _partition(table, (a,)) for a in attrs}
    found: List[FunctionalDependency] = []
    # for minimality: per RHS attr, the set of already-satisfying LHS sets
    winners: Dict[str, List[FrozenSet[str]]] = {a: [] for a in attrs}

    for size in range(1, max_lhs_size + 1):
        for combo in combinations(attrs, size):
            lhs_set = frozenset(combo)
            lhs_partition = _partition(table, combo)
            for target in attrs:
                if target in combo:
                    continue
                if any(w <= lhs_set for w in winners[target]):
                    continue  # a smaller LHS already determines target
                if _refines(lhs_partition, single_partitions[target]):
                    winners[target].append(lhs_set)
                    found.append(
                        FunctionalDependency(table.name, combo, (target,))
                    )
    return sorted(found, key=lambda f: f.sort_key())


def count_fd_candidates(n_attrs: int, max_lhs_size: int = 3) -> int:
    """Number of (LHS, RHS) pairs the exhaustive search examines."""
    from math import comb

    total = 0
    for size in range(1, max_lhs_size + 1):
        total += comb(n_attrs, size) * (n_attrs - size)
    return total
