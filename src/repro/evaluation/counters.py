"""Cost accounting: extension queries and expert interactions.

The paper's efficiency argument is qualitative ("the equi-join analysis
focuses on relevant attributes enforcing the efficiency of the
elicitation"); these counters make it quantitative for the S-series
benchmarks.

Since the observability layer landed, the counts are *views over the
tracer's event stream*: a :class:`~repro.relational.database.Database`
carries a ``TracedQueryCounter`` whose figures are computed from the
recorded :class:`~repro.obs.tracer.PrimitiveEvent` records, and
:func:`cost_report_from_trace` assembles the same :class:`CostReport`
straight from a tracer.  There is no second bookkeeping to drift: a
``CostReport`` total always equals the number of events in the stream
it was derived from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.expert import RecordingExpert
from repro.obs.tracer import Tracer
from repro.relational.database import QueryCounter


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


def _expert_costs(expert: Optional[RecordingExpert]):
    by_kind: Dict[str, int] = {}
    decisions = 0
    if expert is not None:
        for interaction in expert.log:
            by_kind[interaction.kind] = by_kind.get(interaction.kind, 0) + 1
        decisions = expert.decision_count
    return decisions, by_kind


def cost_report(
    counter: QueryCounter, expert: Optional[RecordingExpert] = None
) -> CostReport:
    """Assemble a :class:`CostReport` from the pipeline's instruments."""
    decisions, by_kind = _expert_costs(expert)
    return CostReport(
        count_distinct_queries=counter.count_distinct,
        join_count_queries=counter.join_count,
        fd_checks=counter.fd_checks,
        inclusion_checks=counter.inclusion_checks,
        expert_decisions=decisions,
        expert_by_kind=by_kind,
    )


def cost_report_from_trace(
    tracer: Tracer, expert: Optional[RecordingExpert] = None
) -> CostReport:
    """A :class:`CostReport` summed directly from the event stream."""
    counts = {
        "count_distinct": 0,
        "join_count": 0,
        "fd_holds": 0,
        "inclusion_holds": 0,
    }
    for event in tracer.events:
        if event.primitive in counts:
            counts[event.primitive] += 1
    decisions, by_kind = _expert_costs(expert)
    return CostReport(
        count_distinct_queries=counts["count_distinct"],
        join_count_queries=counts["join_count"],
        fd_checks=counts["fd_holds"],
        inclusion_checks=counts["inclusion_holds"],
        expert_decisions=decisions,
        expert_by_kind=by_kind,
    )
