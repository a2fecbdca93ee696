"""Evaluation: scoring recovered semantics against ground truth.

- :mod:`repro.evaluation.metrics` — precision / recall / F1 over FD and
  IND sets, with implication-aware matching (a recovered dependency that
  is *implied by* the truth is not a false positive);
- :mod:`repro.evaluation.schema_match` — did the restructured schema
  recover the original normalized relations?
- :mod:`repro.evaluation.counters` — interaction / query-cost accounting.
"""

from repro.evaluation.metrics import (
    PrecisionRecall,
    score_fds,
    score_inds,
    score_refs,
)
from repro.evaluation.schema_match import SchemaRecovery, score_schema_recovery
from repro.evaluation.counters import CostReport, cost_report_from_trace

__all__ = [
    "PrecisionRecall",
    "score_fds",
    "score_inds",
    "score_refs",
    "SchemaRecovery",
    "score_schema_recovery",
    "CostReport",
    "cost_report_from_trace",
]
