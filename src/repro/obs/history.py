"""Cross-run analytics: trend tables over archived runs.

One run tells you what the method did; a *series* of runs tells you
what changed.  This module reads the ``repro/archive@1`` run archive
(``repro serve --archive``), grouped by the database/workload
fingerprints the results cache keys on, and renders trend tables
(per-phase latency, primitive cache hit-rate).

The archive keeps the latest run per (database, workload, config) key,
so a group holds the *same discovery problem* under distinct configs —
not repeat runs of one config — and its rows compare configs side by
side.  Surfaced as ``repro history --archive DIR``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.obs.live import RunStats
from repro.util.text import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.archive import RunArchive

__all__ = ["archive_trends", "render_archive_trends"]


def archive_trends(archive: "RunArchive") -> List[Dict[str, Any]]:
    """Per-fingerprint trend rows over every archived run.

    Runs are grouped by (database fingerprint, workload fingerprint) —
    the same pair the results cache keys on — so a group holds the
    *same discovery problem* run under possibly different configs, and
    differences within a group are attributable to config or code, not
    input.  Each row carries the group's per-phase latency series
    and primitive cache hit-rate.
    """
    groups: Dict[Tuple[str, str], List[Any]] = {}
    for run in archive.runs():
        groups.setdefault(run.cache_key[:2], []).append(run)
    rows: List[Dict[str, Any]] = []
    for (db_fp, wl_fp), runs in sorted(groups.items()):
        group = RunStats()
        for run in runs:
            group.merge(run.stats)
        totals = group.totals()
        rows.append({
            "database_fingerprint": db_fp,
            "workload_fingerprint": wl_fp,
            "runs": len(runs),
            "states": [run.state for run in runs],
            "labels": [run.record.get("label", "") for run in runs],
            "phase_ms": {k: round(v, 3) for k, v in sorted(group.phase_ms.items())},
            "wall_ms": [round(sum(run.stats.phase_ms.values()), 3) for run in runs],
            "cache_hit_rate": (
                round(totals["cache_hits"] / totals["queries"], 4)
                if totals["queries"] else 0.0
            ),
        })
    return rows


def render_archive_trends(archive: "RunArchive") -> str:
    """The one-screen archive trend table (``repro history --archive``)."""
    rows = archive_trends(archive)
    if not rows:
        return "archive is empty\n"
    table = []
    for row in rows:
        slowest = max(
            row["phase_ms"].items(), key=lambda kv: kv[1], default=("-", 0.0)
        )
        table.append([
            row["database_fingerprint"][:10],
            row["workload_fingerprint"][:10],
            str(row["runs"]),
            ",".join(row["labels"][-3:]),
            f"{slowest[0]}={slowest[1]:.1f}ms",
            f"{100 * row['cache_hit_rate']:.0f}%",
        ])
    lines = [
        f"archive: {sum(r['runs'] for r in rows)} runs over "
        f"{len(rows)} fingerprint group(s)",
        format_table(
            ["database", "workload", "runs", "labels", "slowest phase",
             "hit-rate"],
            table,
        ),
    ]
    return "\n".join(lines) + "\n"
