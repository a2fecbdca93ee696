"""The counting-primitive query engine: probes, planner, batch executor.

IND-Discovery (§6.1) and RHS-Discovery (§6.2.2) reduce to thousands of
distinct-count, join-count and FD probes against the extension.  Issued
one synchronous call at a time they dominate the pipeline's wall clock;
this package lets a phase submit them *declaratively* instead:

1. build one :class:`Probe` per question (:mod:`repro.engine.probes`);
2. the planner dedupes structurally identical probes and groups probes
   sharing a relation (:mod:`repro.engine.planner`);
3. the :class:`BatchExecutor` answers the plan with the strategy the
   backend's capability selects — grouped SQL pushdown via the optional
   ``execute_batch`` hook, or a serial fallback — while recording one
   trace event per logical probe so query accounting matches a serial
   run exactly (:mod:`repro.engine.executor`).

``DBREPipeline(..., engine="batched")`` (CLI: ``--engine batched``)
routes IND- and RHS-Discovery through one shared executor; the default
``serial`` mode keeps the original call-at-a-time behavior.  The
differential suite under ``tests/engine`` proves both modes produce
bit-identical pipeline output on every workload scenario and backend.
"""

from repro.engine.executor import BatchExecutor, EngineStats
from repro.engine.planner import ProbeGroup, QueryPlan, plan_probes
from repro.engine.probes import PROBE_PRIMITIVES, Probe

__all__ = [
    "PROBE_PRIMITIVES",
    "Probe",
    "ProbeGroup",
    "QueryPlan",
    "plan_probes",
    "BatchExecutor",
    "EngineStats",
]
