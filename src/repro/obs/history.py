"""Cross-run analytics: trends and drift over archived runs.

One run tells you what the method did; a *series* of runs tells you
what changed.  This module reads the ``repro/archive@1`` run archive
(``repro serve --archive``), grouped by the database/workload
fingerprints the results cache keys on, and renders trend tables
(per-phase latency, primitive cache hit-rate) with **robust drift
detection**: each group's wall-time series is scored with the
median/MAD z-score

    z_i = 0.6745 * (x_i - median) / MAD

which, unlike a mean/stddev score, is not dragged toward the outlier it
is trying to flag — one anomalous run in ten leaves the median and MAD
almost untouched, so the outlier scores high instead of inflating its
own yardstick.  ``|z| >= 3.5`` (Iglewicz & Hoaglin's conventional cut)
flags a run as drifted.  When MAD is zero (over half the series is
identical) the mean absolute deviation stands in; a series that never
varies at all cannot drift.

Surfaced as ``repro history --archive DIR`` (tables + flags); drift is
a question ("did something change?"), not a verdict.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple

from repro.obs.live import RunStats
from repro.util.text import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.archive import RunArchive

__all__ = [
    "DRIFT_THRESHOLD",
    "archive_trends",
    "detect_drift",
    "render_archive_trends",
    "robust_zscores",
]

#: the conventional modified-z-score outlier cut (Iglewicz & Hoaglin)
DRIFT_THRESHOLD = 3.5

#: series shorter than this cannot meaningfully drift
_MIN_SERIES = 4


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def robust_zscores(values: Sequence[float]) -> List[float]:
    """Modified z-scores (median/MAD) for *values*.

    ``0.6745 * (x - median) / MAD`` — the 0.6745 factor rescales MAD to
    the standard deviation of a normal distribution, so the 3.5 cut
    means the same thing it would for a classic z-score.  Falls back to
    the mean absolute deviation (scaled by 0.7979) when MAD is zero;
    returns all zeros when the series has no spread at all.
    """
    if not values:
        return []
    center = _median(values)
    deviations = [abs(v - center) for v in values]
    mad = _median(deviations)
    if mad > 0:
        return [0.6745 * (v - center) / mad for v in values]
    mean_ad = sum(deviations) / len(deviations)
    if mean_ad > 0:
        return [0.7979 * (v - center) / mean_ad for v in values]
    return [0.0 for _ in values]


def detect_drift(
    values: Sequence[float], threshold: float = DRIFT_THRESHOLD
) -> List[Tuple[int, float]]:
    """``(index, z)`` for every drifted point in *values*.

    Series shorter than four points are never flagged — with two or
    three samples the median *is* the data and every deviation looks
    enormous.
    """
    if len(values) < _MIN_SERIES:
        return []
    scores = robust_zscores(values)
    return [
        (index, round(score, 2))
        for index, score in enumerate(scores)
        if abs(score) >= threshold
    ]


def archive_trends(
    archive: "RunArchive", threshold: float = DRIFT_THRESHOLD
) -> List[Dict[str, Any]]:
    """Per-fingerprint trend rows over every archived run.

    Runs are grouped by (database fingerprint, workload fingerprint) —
    the same pair the results cache keys on — so a group holds the
    *same discovery problem* run under possibly different configs, and
    differences within a group are attributable to config or code, not
    input.  Each row carries the group's per-phase latency series,
    and primitive cache hit-rate, with the group's wall-time drift
    verdict.
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
        walls = [sum(run.stats.phase_ms.values()) for run in runs]
        rows.append({
            "database_fingerprint": db_fp,
            "workload_fingerprint": wl_fp,
            "runs": len(runs),
            "states": [run.state for run in runs],
            "labels": [run.record.get("label", "") for run in runs],
            "phase_ms": {k: round(v, 3) for k, v in sorted(group.phase_ms.items())},
            "wall_ms": [round(w, 3) for w in walls],
            "cache_hit_rate": (
                round(totals["cache_hits"] / totals["queries"], 4)
                if totals["queries"] else 0.0
            ),
            "drift": detect_drift(walls, threshold),
        })
    return rows


def render_archive_trends(
    archive: "RunArchive", threshold: float = DRIFT_THRESHOLD
) -> str:
    """The one-screen archive trend table (``repro history --archive``)."""
    rows = archive_trends(archive, threshold)
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
            "DRIFT" if row["drift"] else "ok",
        ])
    lines = [
        f"archive: {sum(r['runs'] for r in rows)} runs over "
        f"{len(rows)} fingerprint group(s)",
        format_table(
            ["database", "workload", "runs", "labels", "slowest phase",
             "hit-rate", "verdict"],
            table,
        ),
    ]
    return "\n".join(lines) + "\n"
