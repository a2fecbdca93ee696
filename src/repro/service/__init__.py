"""The service layer: multi-job discovery runs behind one manager.

- :mod:`repro.service.jobs` — a **long-running multi-job discovery
  manager**: submit / status / result / cancel over queued
  reverse-engineering runs, with a results cache keyed by (database
  fingerprint, workload hash, config) that serves repeat queries
  without re-running discovery.  :mod:`repro.service.server` exposes
  the manager as a local HTTP JSON API (``repro serve``);
  :mod:`repro.service.export` writes the job ledger as a
  ``repro/jobs@1`` JSONL export; :mod:`repro.service.specs` maps JSON
  job specs (what ``repro jobs`` files and the HTTP API carry) to
  submissions; :mod:`repro.service.metrics` renders ``/metrics`` and
  :mod:`repro.service.stream` the Server-Sent Events of ``/events``.

Each run is one :class:`~repro.core.pipeline.DBREPipeline` on the
manager's runner thread, one primitive call per probe.
``tests/service`` covers the job lifecycle.  See ``docs/SERVICE.md``.
"""

from repro.service.export import (
    JOBS_FORMAT,
    jobs_to_records,
    read_jobs_jsonl,
    write_jobs_jsonl,
)
from repro.service.jobs import (
    JOB_STATES,
    Job,
    JobManager,
    database_fingerprint,
    workload_fingerprint,
)
from repro.service.metrics import (
    METRICS_CONTENT_TYPE,
    lint_exposition,
    render_metrics,
)
from repro.service.stream import (
    DEFAULT_HEARTBEAT,
    SSE_CONTENT_TYPE,
    format_comment,
    format_event,
    parse_sse,
    sse_events,
)

__all__ = [
    "DEFAULT_HEARTBEAT",
    "JOBS_FORMAT",
    "JOB_STATES",
    "Job",
    "JobManager",
    "METRICS_CONTENT_TYPE",
    "SSE_CONTENT_TYPE",
    "database_fingerprint",
    "format_comment",
    "format_event",
    "jobs_to_records",
    "lint_exposition",
    "parse_sse",
    "read_jobs_jsonl",
    "render_metrics",
    "sse_events",
    "workload_fingerprint",
    "write_jobs_jsonl",
]
