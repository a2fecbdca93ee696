"""The durable run archive: ``repro/archive@1`` on disk.

Everything the telemetry layer produces for a run — the trace, the
metrics summary, the live capture, the provenance DAG, the job's ledger
record — died with the server process until now.  This module gives the
service a **content-addressed on-disk archive**: each finished run is
stored under a key derived from the same content fingerprints the
results cache uses, so the archive *is* a persistent results cache —
a restarted ``repro serve --archive DIR`` restores its ledger and
answers repeat submissions as cache hits for work a previous process
did.

Layout (everything under one root directory)::

    DIR/
      index.jsonl            # header line + one entry per archived run
      runs/<key>/
        record.json          # the run's manifest (ledger record, stats,
                             # rendered EER, fingerprints, artifact map)
        trace.jsonl          # repro/trace@1
        metrics.json         # repro/metrics@1
        live.jsonl           # repro/live@1 (the retained stream)
        provenance.jsonl     # repro/provenance@1 (when the run kept one)

``<key>`` is :func:`run_key` — a hash of (database fingerprint,
workload fingerprint, config token), i.e. the results-cache key.  Two
submissions with identical content share one archived run (the second
is a cache hit and never runs); a re-run after a *failed* attempt
overwrites the same slot, and the append-only index resolves to the
latest entry per key.

Crash consistency: artifacts are written into the run directory first,
and the index line is appended **last** — the commit point.  A process
killed mid-write leaves either no index entry (the partial run
directory is ignored and overwritten by the next attempt) or a complete
one.  :meth:`RunArchive.runs` additionally drops index entries whose
manifest has gone missing, so a hand-pruned archive (deleting old
``runs/<key>`` directories to reclaim space) keeps restoring cleanly.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.live import RunStats
from repro.util.jsonl import load_jsonl, save_jsonl

__all__ = [
    "ARCHIVE_FORMAT",
    "ArchivedRun",
    "RunArchive",
    "run_key",
]

#: the versioned format tag of the on-disk run archive
ARCHIVE_FORMAT = "repro/archive@1"

_INDEX_NAME = "index.jsonl"
_RUNS_DIR = "runs"

#: artifact name → file name inside a run directory
_ARTIFACT_FILES = {
    "trace": "trace.jsonl",
    "metrics": "metrics.json",
    "live": "live.jsonl",
    "provenance": "provenance.jsonl",
}


def run_key(
    database_fingerprint: str, workload_fingerprint: str, config_token: str
) -> str:
    """The content address of one run: a hash of its cache key.

    The same triple the in-memory results cache keys on, folded into a
    short stable hex digest that is safe as a directory name.
    """
    digest = hashlib.sha256()
    for part in (database_fingerprint, workload_fingerprint, config_token):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:20]


@dataclass
class ArchivedRun:
    """One restorable run: its manifest plus where its artifacts live."""

    key: str
    record: Dict[str, Any]
    #: (database fingerprint, workload fingerprint, config token)
    cache_key: Tuple[str, str, str]
    stats: RunStats = field(repr=False, default_factory=RunStats)
    eer: Optional[str] = field(repr=False, default=None)
    #: artifact name → absolute path, for artifacts actually on disk
    artifacts: Dict[str, str] = field(default_factory=dict, repr=False)

    @property
    def job_id(self) -> str:
        return self.record.get("id", "")

    @property
    def state(self) -> str:
        return self.record.get("state", "")


class RunArchive:
    """Read/write access to one ``repro/archive@1`` directory.

    Thread-compat note: :meth:`store` is called from the job manager's
    runner threads; each call writes a distinct run directory and the
    index append is a single ``write`` of one line, so concurrent
    stores interleave safely at the line level.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(os.path.join(self.root, _RUNS_DIR), exist_ok=True)
        self._index_path = os.path.join(self.root, _INDEX_NAME)

    def __repr__(self) -> str:
        return f"RunArchive({self.root!r})"

    # -- writing -------------------------------------------------------
    def store(
        self,
        record: Dict[str, Any],
        cache_key: Tuple[str, str, str],
        trace: Optional[List[Dict[str, Any]]] = None,
        metrics: Optional[Dict[str, Any]] = None,
        live: Optional[List[Dict[str, Any]]] = None,
        provenance: Optional[List[Dict[str, Any]]] = None,
        stats: Optional[RunStats] = None,
        eer: Optional[str] = None,
    ) -> str:
        """Archive one finished run; returns its content key.

        *record* is the job's ``repro/jobs@1`` ledger record; the
        artifact streams are the already-rendered export records
        (header included).  Artifacts land first, the manifest second,
        the index line last — the commit point.
        """
        key = run_key(*cache_key)
        run_dir = os.path.join(self.root, _RUNS_DIR, key)
        os.makedirs(run_dir, exist_ok=True)
        artifacts: Dict[str, str] = {}
        streams: Dict[str, Optional[List[Dict[str, Any]]]] = {
            "trace": trace,
            "live": live,
            "provenance": provenance,
        }
        for name, records in streams.items():
            if records is None:
                continue
            save_jsonl(records, os.path.join(run_dir, _ARTIFACT_FILES[name]))
            artifacts[name] = _ARTIFACT_FILES[name]
        if metrics is not None:
            with open(
                os.path.join(run_dir, _ARTIFACT_FILES["metrics"]),
                "w",
                encoding="utf-8",
            ) as handle:
                json.dump(metrics, handle, indent=2, sort_keys=True)
                handle.write("\n")
            artifacts["metrics"] = _ARTIFACT_FILES["metrics"]
        manifest = {
            "format": ARCHIVE_FORMAT,
            "type": "run",
            "key": key,
            "database_fingerprint": cache_key[0],
            "workload_fingerprint": cache_key[1],
            "config_token": cache_key[2],
            "archived_at": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "record": record,
            "stats": (stats or RunStats()).as_dict(),
            "eer": eer,
            "artifacts": artifacts,
        }
        with open(
            os.path.join(run_dir, "record.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        self._append_index(
            {
                "type": "run",
                "key": key,
                "job": record.get("id"),
                "label": record.get("label"),
                "state": record.get("state"),
                "database_fingerprint": cache_key[0],
                "workload_fingerprint": cache_key[1],
                "archived_at": manifest["archived_at"],
            }
        )
        return key

    def _append_index(self, entry: Dict[str, Any]) -> None:
        line = json.dumps(entry, sort_keys=True, default=str) + "\n"
        if not os.path.exists(self._index_path):
            header = json.dumps(
                {"type": "header", "format": ARCHIVE_FORMAT}, sort_keys=True
            )
            line = header + "\n" + line
        with open(self._index_path, "a", encoding="utf-8") as handle:
            handle.write(line)

    # -- reading -------------------------------------------------------
    def index(self) -> List[Dict[str, Any]]:
        """The raw index entries, latest-per-key, oldest first.

        Raises :class:`ValueError` when the index exists but is not a
        ``repro/archive@1`` index; an absent index is an empty archive.
        """
        if not os.path.exists(self._index_path):
            return []
        # read tolerantly, not via load_jsonl: a process killed mid-append
        # leaves a torn final line, and that one uncommitted entry must
        # cost one run, not the whole archive
        records: List[Dict[str, Any]] = []
        with open(self._index_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    records.append(record)
        if not records or records[0].get("format") != ARCHIVE_FORMAT:
            raise ValueError(
                f"not a {ARCHIVE_FORMAT} index: {self._index_path!r}"
            )
        latest: Dict[str, Dict[str, Any]] = {}
        order: List[str] = []
        for entry in records[1:]:
            key = entry.get("key")
            if not key:
                continue
            if key not in latest:
                order.append(key)
            latest[key] = entry
        return [latest[key] for key in order]

    def runs(self) -> List["ArchivedRun"]:
        """Every restorable run, in first-archived order.

        Index entries whose manifest is missing or unreadable (a
        pruned or half-written run directory) are silently skipped —
        the archive restores what it can.
        """
        runs: List[ArchivedRun] = []
        for entry in self.index():
            run = self.load(entry["key"])
            if run is not None:
                runs.append(run)
        return runs

    def load(self, key: str) -> Optional[ArchivedRun]:
        """One run by content key, or None when it cannot be read."""
        run_dir = os.path.join(self.root, _RUNS_DIR, key)
        manifest_path = os.path.join(run_dir, "record.json")
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if manifest.get("format") != ARCHIVE_FORMAT:
            return None
        record = manifest.get("record")
        if not isinstance(record, dict) or not record.get("id"):
            return None
        artifacts = {
            name: os.path.join(run_dir, file_name)
            for name, file_name in (manifest.get("artifacts") or {}).items()
            if os.path.exists(os.path.join(run_dir, file_name))
        }
        return ArchivedRun(
            key=key,
            record=record,
            cache_key=(
                manifest.get("database_fingerprint", ""),
                manifest.get("workload_fingerprint", ""),
                manifest.get("config_token", ""),
            ),
            stats=RunStats.from_dict(manifest.get("stats") or {}),
            eer=manifest.get("eer"),
            artifacts=artifacts,
        )

    def read_artifact(self, key: str, name: str) -> Optional[List[Dict[str, Any]]]:
        """A run's JSONL artifact records (header included), or None.

        *name* is ``trace`` / ``live`` / ``provenance``.  The metrics
        document is JSON, not JSONL — read it via :meth:`read_metrics`.
        """
        if name not in ("trace", "live", "provenance"):
            raise ValueError(f"unknown JSONL artifact {name!r}")
        path = os.path.join(self.root, _RUNS_DIR, key, _ARTIFACT_FILES[name])
        if not os.path.exists(path):
            return None
        try:
            return load_jsonl(path)
        except ValueError:
            return None

    def read_metrics(self, key: str) -> Optional[Dict[str, Any]]:
        """A run's archived ``repro/metrics@1`` document, or None."""
        path = os.path.join(self.root, _RUNS_DIR, key, _ARTIFACT_FILES["metrics"])
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
