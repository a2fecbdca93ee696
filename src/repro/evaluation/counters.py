"""Cost accounting: extension queries and expert interactions.

The paper's efficiency argument is qualitative ("the equi-join analysis
focuses on relevant attributes enforcing the efficiency of the
elicitation"); these counters make it quantitative for the S-series
benchmarks.

The counts are *views over the tracer's recorded run*: a
:class:`~repro.relational.database.Database` records one ``primitive``
record per query on its tracer's bus, and :func:`cost_report_from_trace`
— the one way to build a :class:`CostReport` — reads them off the bus's
fold.  There is no second bookkeeping to drift: a ``CostReport`` total
always equals the number of primitive records in the history it was
derived from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.expert import RecordingExpert
from repro.obs.tracer import Tracer


@dataclass(frozen=True)
class CostReport:
    """One run's costs, broken down by kind."""

    count_distinct_queries: int
    join_count_queries: int
    fd_checks: int
    inclusion_checks: int
    expert_decisions: int
    expert_by_kind: Dict[str, int]

    @property
    def total_queries(self) -> int:
        """All extension queries, across the four primitives."""
        return (
            self.count_distinct_queries
            + self.join_count_queries
            + self.fd_checks
            + self.inclusion_checks
        )

    def __repr__(self) -> str:
        return (
            f"CostReport(queries={self.total_queries}, "
            f"decisions={self.expert_decisions})"
        )


def cost_report_from_trace(
    tracer: Tracer, expert: Optional[RecordingExpert] = None
) -> CostReport:
    """A :class:`CostReport` read off the tracer's recorded run."""
    counts = tracer.live_bus.calls()
    by_kind: Dict[str, int] = {}
    decisions = 0
    if expert is not None:
        for interaction in expert.log:
            by_kind[interaction.kind] = by_kind.get(interaction.kind, 0) + 1
        decisions = expert.decision_count
    return CostReport(
        count_distinct_queries=counts.get("count_distinct", 0),
        join_count_queries=counts.get("join_count", 0),
        fd_checks=counts.get("fd_holds", 0),
        inclusion_checks=counts.get("inclusion_holds", 0),
        expert_decisions=decisions,
        expert_by_kind=by_kind,
    )
