"""``GET /metrics``: a Prometheus-style exposition of the service.

The exposition is aggregated from the **same stream** the SSE endpoint
serves — every job's bus folds each published ``repro/live@1`` record
into its :class:`~repro.obs.live.RunStats` (the fold metrics@1 and the
profile render too), which a scrape merges in O(jobs) — plus the
manager's own ledger, so a scrape and a watcher can never disagree
about what the service did (and the totals outlive ledger eviction):

- ``repro_build_info{version=...}`` — the instance's build identity;
- ``repro_uptime_seconds`` — seconds since the server started;
- ``repro_jobs_total{state=...}`` — the ledger by state;
- ``repro_jobs_evicted_total`` — finished jobs the bounded ledger
  (``keep_finished``) has retired;
- ``repro_jobs_restored_total`` — runs restored from the archive at
  startup (their telemetry totals fold into every counter below);
- ``repro_phase_runs_total`` / ``repro_phase_latency_ms_total`` — one
  increment per closed phase span, summed per phase name;
- ``repro_setup_latency_ms_total`` — wall time of the pipeline's
  ``setup`` spans (its working ``copy``), summed per step name;
- ``repro_primitive_calls_total`` / ``repro_primitive_cache_hits_total``
  — per extension primitive, from the ``primitive`` records;
- ``repro_live_events_total{type=...}`` — the bus's own accounting;
- ``repro_sse_streams_active`` — watchers connected right now.

:func:`lint_exposition` checks the text format the way a scraper
would — HELP/TYPE present per family, sample syntax, parseable values
— and is run over the live endpoint in CI
(``scripts/validate_exports.py``).
"""

from __future__ import annotations

import re
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro import __version__
from repro.service.jobs import JOB_STATES

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.live import RunStats
    from repro.service.jobs import JobManager

__all__ = [
    "METRICS_CONTENT_TYPE",
    "lint_exposition",
    "render_metrics",
]

#: the content type of the classic Prometheus text exposition
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Exposition:
    """Accumulates families and renders the text format."""

    def __init__(self) -> None:
        self._families: List[Tuple[str, str, str, List[Tuple[Dict[str, str], Any]]]] = []

    def family(
        self,
        name: str,
        kind: str,
        help_text: str,
        samples: List[Tuple[Dict[str, str], Any]],
    ) -> None:
        self._families.append((name, kind, help_text, samples))

    def render(self) -> str:
        lines: List[str] = []
        for name, kind, help_text, samples in self._families:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, value in samples:
                if labels:
                    pairs = ",".join(
                        f'{key}="{_escape(str(val))}"'
                        for key, val in sorted(labels.items())
                    )
                    lines.append(f"{name}{{{pairs}}} {_format_value(value)}")
                else:
                    lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def render_metrics(
    manager: "JobManager",
    streams_active: int = 0,
    started: Optional[float] = None,
) -> str:
    """The whole service as one Prometheus text exposition.

    Aggregation is O(jobs), not O(events): each bus keeps a running
    :class:`~repro.obs.live.RunStats` fold updated at publish time,
    so a scrape merges per-job snapshots instead of rescanning every
    record ever published — and the totals survive ledger eviction
    retiring old jobs, and even server restarts (runs restored from the archive fold their archived
    totals back in), keeping the counters monotonic throughout.

    *started* is the server's start wall-time; when given, the
    exposition carries a ``repro_uptime_seconds`` gauge.
    """
    jobs = manager.jobs()
    evicted = manager.evicted()
    restored = manager.restored()
    by_state = {state: 0 for state in JOB_STATES}
    cached = evicted["cached"]
    totals: "RunStats" = evicted["stats"]
    totals.merge(restored["stats"])
    for job in jobs:
        by_state[job.state] = by_state.get(job.state, 0) + 1
        cached += 1 if job.cached else 0
        if job.live is not None:
            totals.merge(job.live.stats())

    exposition = _Exposition()
    exposition.family(
        "repro_build_info", "gauge",
        "Build identity of this server instance (value is always 1).",
        [({"version": __version__}, 1)],
    )
    if started is not None:
        exposition.family(
            "repro_uptime_seconds", "gauge",
            "Seconds since this server instance started.",
            [({}, round(max(0.0, time.time() - started), 3))],
        )
    exposition.family(
        "repro_jobs_total", "gauge", "Jobs in the ledger, by state.",
        [({"state": state}, count) for state, count in sorted(by_state.items())],
    )
    exposition.family(
        "repro_jobs_cached_total", "counter",
        "Jobs answered from the results cache.", [({}, cached)],
    )
    exposition.family(
        "repro_jobs_evicted_total", "counter",
        "Finished jobs retired from the bounded ledger.",
        [({}, evicted["jobs"])],
    )
    exposition.family(
        "repro_jobs_restored_total", "counter",
        "Jobs restored into the ledger from the run archive at startup.",
        [({}, restored["jobs"])],
    )
    exposition.family(
        "repro_phase_runs_total", "counter",
        "Completed pipeline phase spans, by phase.",
        [({"phase": p}, n) for p, n in sorted(totals.phase_runs.items())],
    )
    exposition.family(
        "repro_phase_latency_ms_total", "counter",
        "Total wall milliseconds spent per pipeline phase.",
        [({"phase": p}, ms) for p, ms in sorted(totals.phase_ms.items())],
    )
    exposition.family(
        "repro_setup_latency_ms_total", "counter",
        "Total wall milliseconds spent per pipeline setup step.",
        [({"step": s}, ms) for s, ms in sorted(totals.setup_ms.items())],
    )
    exposition.family(
        "repro_step_runs_total", "counter",
        "Completed in-phase step spans (RHS evidence), by step.",
        [({"step": s}, n) for s, n in sorted(totals.step_runs.items())],
    )
    exposition.family(
        "repro_step_latency_ms_total", "counter",
        "Total wall milliseconds spent per in-phase step.",
        [({"step": s}, ms) for s, ms in sorted(totals.step_ms.items())],
    )
    exposition.family(
        "repro_primitive_calls_total", "counter",
        "Extension-primitive calls, by primitive.",
        [({"primitive": p}, n) for p, n in sorted(totals.primitive_calls.items())],
    )
    exposition.family(
        "repro_primitive_cache_hits_total", "counter",
        "Primitive calls answered from a cache, by primitive.",
        [({"primitive": p}, n) for p, n in sorted(totals.primitive_cache_hits.items())],
    )
    exposition.family(
        "repro_live_events_total", "counter",
        "Live telemetry records published, by record type.",
        [({"type": t}, n) for t, n in sorted(totals.events.items())],
    )
    exposition.family(
        "repro_sse_streams_active", "gauge",
        "SSE watchers connected right now.", [({}, streams_active)],
    )
    return exposition.render()


# ----------------------------------------------------------------------
# the lint (what a scraper would reject)
# ----------------------------------------------------------------------
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)


def lint_exposition(text: str) -> List[str]:
    """Problems with a Prometheus text exposition; empty = parses clean."""
    problems: List[str] = []
    if not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    helped: Dict[str, bool] = {}
    typed: Dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                problems.append(f"line {number}: malformed comment {line!r}")
                continue
            _, keyword, name = parts[0], parts[1], parts[2]
            if not _NAME.match(name):
                problems.append(f"line {number}: bad metric name {name!r}")
                continue
            if keyword == "HELP":
                if name in helped:
                    problems.append(f"line {number}: duplicate HELP for {name}")
                helped[name] = True
            else:
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in _TYPES:
                    problems.append(
                        f"line {number}: unknown TYPE {kind!r} for {name}"
                    )
                if name in typed:
                    problems.append(f"line {number}: duplicate TYPE for {name}")
                typed[name] = kind
            continue
        match = _SAMPLE.match(line)
        if match is None:
            problems.append(f"line {number}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        if name not in typed:
            problems.append(f"line {number}: sample {name} has no TYPE")
        if name not in helped:
            problems.append(f"line {number}: sample {name} has no HELP")
        labels = match.group("labels")
        if labels:
            for pair in _split_labels(labels):
                if not _LABEL_PAIR.match(pair):
                    problems.append(
                        f"line {number}: bad label pair {pair!r}"
                    )
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                problems.append(f"line {number}: bad sample value {value!r}")
    return problems


def _split_labels(body: str) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    pairs, current, quoted, escaped = [], [], False, False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            quoted = not quoted
            current.append(char)
            continue
        if char == "," and not quoted:
            pairs.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        pairs.append("".join(current))
    return pairs
