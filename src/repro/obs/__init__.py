"""Observability: structured tracing, metrics and trace export.

The subsystem makes the paper's efficiency argument measurable end to
end:

- :mod:`repro.obs.tracer` — :class:`Tracer`, nested
  :class:`SpanRecord` intervals around the five pipeline phases, and
  one :class:`PrimitiveEvent` per extension-primitive call;
- :mod:`repro.obs.instrument` — :class:`InstrumentedBackend`, the thin
  wrapper that times backend primitives and records cache hit/miss and
  rows touched without the backends knowing about the tracer;
- :mod:`repro.obs.export` — the one reader of a recorded run (a
  ``repro/live@1`` capture, or a legacy ``repro/trace@1`` file), the
  flat metrics-JSON view, and the ``repro trace summarize`` rendering;
- :mod:`repro.obs.profile` — hotspot aggregation (inclusive vs.
  exclusive time, per-phase primitive breakdowns), the collapsed-stack
  flamegraph exporter, and the trace diff engine behind
  ``repro profile`` / ``repro trace diff``;
- :mod:`repro.obs.provenance` — :class:`ProvenanceLedger`, the
  decision-lineage DAG linking every elicited artifact (IND, FD, RIC,
  EER construct) to the extension counts, source queries and expert
  answers that justify it, with JSONL/DOT exporters and the
  ``repro explain`` chain renderer;
- :mod:`repro.obs.report` — the single-file HTML audit report
  (``repro report``) combining trace, metrics, expert dialogue and the
  lineage graph;
- :mod:`repro.obs.live` — the real-time event bus: a tracer publishes
  span boundaries, primitive events and progress ticks into a record
  history the moment they happen (``repro/live@1``), at zero cost
  while no bus is attached; readers page the history by ``seq`` and
  wait on the bus for more — this is what ``--trace`` writes, the
  service's SSE endpoint and ``repro jobs watch`` consume, and an
  archived run's one stored stream;
- :mod:`repro.obs.archive` / :mod:`repro.obs.history` — the durable
  run archive (each run's live capture, fold, provenance and ledger
  record) and the ``repro history`` trend tables over it;
- :mod:`repro.obs.log` — JSON-lines structured logging with run/job
  correlation IDs carried through ``contextvars``.

``QueryCounter`` and ``CostReport`` are views over the same event
stream, so the counters the benchmarks report and the exported traces
can never disagree.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.tracer import (
    PHASE_NAMES,
    PRIMITIVES,
    PrimitiveEvent,
    SpanRecord,
    Tracer,
)
from repro.obs.instrument import InstrumentedBackend
from repro.obs.live import (
    LIVE_EVENT_TYPES,
    LIVE_FORMAT,
    LiveBus,
    live_records,
    read_live_jsonl,
    write_live_jsonl,
)
from repro.obs.log import (
    configure_json_logging,
    get_logger,
    log_context,
    new_run_id,
)
from repro.obs.export import (
    METRICS_FORMAT,
    TRACE_FORMAT,
    capture_stream,
    metrics_from_records,
    metrics_from_stats,
    read_trace_jsonl,
    summarize_trace,
    write_metrics_json,
)
from repro.obs.profile import (
    collapsed_stacks,
    detect_export_kind,
    diff_views,
    load_capture,
    load_export,
    profile_from_records,
    render_diff,
    render_profile,
    view_from_export,
    write_collapsed,
)
from repro.obs.provenance import (
    NODE_KINDS,
    PROVENANCE_FORMAT,
    ProvEdge,
    ProvNode,
    ProvenanceLedger,
    explain,
    find_artifact,
    provenance_records,
    provenance_to_dot,
    read_provenance_jsonl,
    write_provenance_jsonl,
)
from repro.obs.report import render_html_report

__all__ = [
    "PHASE_NAMES",
    "PRIMITIVES",
    "PrimitiveEvent",
    "SpanRecord",
    "Tracer",
    "InstrumentedBackend",
    "LIVE_EVENT_TYPES",
    "LIVE_FORMAT",
    "LiveBus",
    "live_records",
    "read_live_jsonl",
    "write_live_jsonl",
    "configure_json_logging",
    "get_logger",
    "log_context",
    "new_run_id",
    "METRICS_FORMAT",
    "TRACE_FORMAT",
    "capture_stream",
    "metrics_from_records",
    "metrics_from_stats",
    "read_trace_jsonl",
    "summarize_trace",
    "write_metrics_json",
    "collapsed_stacks",
    "detect_export_kind",
    "diff_views",
    "load_capture",
    "load_export",
    "profile_from_records",
    "render_diff",
    "render_profile",
    "view_from_export",
    "write_collapsed",
    "NODE_KINDS",
    "PROVENANCE_FORMAT",
    "ProvEdge",
    "ProvNode",
    "ProvenanceLedger",
    "explain",
    "find_artifact",
    "provenance_records",
    "provenance_to_dot",
    "read_provenance_jsonl",
    "write_provenance_jsonl",
    "render_html_report",
]
