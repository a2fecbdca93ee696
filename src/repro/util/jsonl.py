"""Line-delimited JSON: the carrier of the streamed export formats.

The observability exports (``repro/live@1``, ``repro/provenance@1``)
are JSONL files: one self-contained JSON object per line, a header
object first.  These helpers are deliberately dependency-free — they
are shared by :mod:`repro.obs` and :mod:`repro.storage`, which sit on
opposite sides of the relational core.

:func:`load_jsonl` reports malformed lines with their line number, so a
truncated or hand-edited export fails with an actionable message
instead of a bare ``json.JSONDecodeError``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

__all__ = ["save_jsonl", "load_jsonl"]


def save_jsonl(records: List[Dict[str, Any]], path: str) -> None:
    """Write *records* to *path*, one stable JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str))
            handle.write("\n")


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read every non-blank line of *path* as one JSON object.

    Raises :class:`ValueError` naming the offending line when a line is
    not valid JSON (e.g. a truncated write) or not a JSON object.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: invalid JSON ({exc.msg}) — "
                    f"truncated or corrupted export?"
                ) from exc
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{lineno}: expected a JSON object, "
                    f"got {type(record).__name__}"
                )
            records.append(record)
    return records
