"""Layer spans recorded from outside the program, for the traced run.

The benchmark times each layer by wrapping its public entry point where
the caller looks it up (a class attribute, or the name a module imported
into its own namespace), records one span per call, and restores the
originals afterwards.  Nothing inside ``src/`` changes.

Spans are kept in memory (name, start, end, parent, run id) and written
as JSONL when the run ends.  Spans opened on the job manager's runner
thread have no parent on that thread; they are parented to the root span
of the sample in progress, so a service sample's tree is whole.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: (module, owner attribute or None for the module itself, attribute,
#: span name).  The owner is looked up at install time, after ``src`` is
#: importable.
LAYERS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.relational.database", "Database", "copy", "relational.database.copy"),
    ("repro.core.rhs_discovery", None, "satisfaction_ratio", "dependencies.inference.evidence"),
    ("repro.core.rhs_discovery", None, "violation_witnesses", "dependencies.inference.evidence"),
    ("repro.backends.memory", "MemoryBackend", "count_distinct", "backends.memory.count_distinct"),
    ("repro.backends.memory", "MemoryBackend", "join_count", "backends.memory.join_count"),
    ("repro.backends.memory", "MemoryBackend", "fd_holds", "backends.memory.fd_holds"),
    ("repro.backends.memory", "MemoryBackend", "inclusion_holds", "backends.memory.inclusion_holds"),
    ("repro.backends.sqlite", "SQLiteBackend", "count_distinct", "backends.sqlite.count_distinct"),
    ("repro.backends.sqlite", "SQLiteBackend", "join_count", "backends.sqlite.join_count"),
    ("repro.backends.sqlite", "SQLiteBackend", "fd_holds", "backends.sqlite.fd_holds"),
    ("repro.backends.sqlite", "SQLiteBackend", "inclusion_holds", "backends.sqlite.inclusion_holds"),
    ("repro.backends.sqlite", "SQLiteBackend", "table", "backends.sqlite.table"),
    ("repro.core.ind_discovery", "INDDiscovery", "run", "core.ind_discovery"),
    ("repro.core.lhs_discovery", "LHSDiscovery", "run", "core.lhs_discovery"),
    ("repro.core.rhs_discovery", "RHSDiscovery", "run", "core.rhs_discovery"),
    ("repro.core.restruct", "Restruct", "run", "core.restruct"),
    ("repro.core.translate", "Translate", "run", "core.translate"),
    ("repro.programs.extractor", "EquiJoinExtractor", "extract_from_corpus", "programs.extractor.extract"),
    # Restruct certifies each split through certify_decomposition (the
    # chase, preservation and normal-form checks); check_certificate is
    # never on the pipeline's path
    ("repro.core.restruct", None, "certify_decomposition", "normalization.certificate.check"),
    ("repro.service.jobs", None, "database_fingerprint", "service.jobs.fingerprint"),
    ("repro.service.jobs", None, "workload_fingerprint", "service.jobs.fingerprint"),
    ("repro.obs.archive", "RunArchive", "store", "obs.archive.store"),
)

#: the span name of a synthetic queue-wait interval (submit → run start)
QUEUE_WAIT = "service.jobs.queue_wait"


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_record(self) -> Dict[str, object]:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
        }


class SpanRecorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[Span] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, start: float) -> Span:
        stack = self._stack()
        root = self._root
        parent = stack[-1].span_id if stack else (root.span_id if root else None)
        with self._lock:
            self._ids += 1
            span = Span(self._ids, name, start, start, parent,
                        root.run if root else None)
            self.spans.append(span)
        return span

    @contextmanager
    def root(self, run_id: str) -> Iterator[Span]:
        """The root span of one sample; other threads' spans join it."""
        span = self._open("run", time.perf_counter())
        span.run = run_id
        self._root = span
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._root = None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name, time.perf_counter())
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an interval measured elsewhere, under the current root."""
        span = self._open(name, start)
        span.end = end

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Patch every layer entry point; restore the originals on exit."""
        import importlib

        saved = []
        for module_name, owner_name, attr, name in LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_record()) + "\n")


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children on another thread may overlap each other, so the covered
    part is the union of their intervals, clipped to the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.parent in by_id:
            parent = by_id[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return {
        span.span_id: span.duration - _union_length(children.get(span.span_id, []))
        for span in spans
    }
