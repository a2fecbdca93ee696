"""Drift-normalised timing: every sample is bracketed by a reference loop.

On a shared or throttled machine the speed of pure-Python code drifts by
tens of percent within a minute, so raw wall-clock medians of two runs of
identical code disagree by more than any useful regression bound.  The
drift is (mostly) uniform: it slows the reference loop and the sample
alike.  Dividing each sample by the mean of a reference loop run
immediately before and after it cancels that common factor; multiplying
the ratio by :data:`NOMINAL_S` makes the figure read as seconds again.

The loop uses builtins only (tuples, strings, sets, dicts), so no change to the
program under test can move it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Tuple

Clock = Callable[[], float]

#: the reference loop's nominal duration; a normalised value is
#: ``sample / reference × NOMINAL_S``, so it reads as the sample's time
#: on a machine where the loop takes exactly this long
NOMINAL_S = 0.007

#: tuples and string keys the reference loop handles per pass (about
#: 5 ms on a 2-core x86-64 VM under CPython 3.11 at its fast moments,
#: up to twice that at its slow ones)
LOOP_TUPLES = 12_000
LOOP_KEYS = 10_000


def reference_loop(n: int = LOOP_TUPLES, keys: int = LOOP_KEYS) -> int:
    """A fixed builtins-only workload of a few milliseconds.

    It has two halves because neither alone tracked every workload:
    tuples hashed into a dict and a set, like a backend scan, tracked
    the 20k-row scans best, and short strings formatted and counted in
    a dict, like per-probe bookkeeping, tracked the service runs best.

    The collector is paused while it runs, so a collection triggered by
    the allocation debt of the surrounding program cannot land inside
    the reference and skew the ratio.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        rows = [(i, i % 97, i % 13) for i in range(n)]
        by_group = {}
        for row in rows:
            by_group[row[1]] = row
        counts = {}
        for i in range(keys):
            key = "k%d" % (i % 3001)
            counts[key] = counts.get(key, 0) + 1
        return len(by_group) + len(set(rows)) + len(counts)
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class Lap:
    """One timed segment inside a bracket."""

    kind: str
    raw_s: float
    result: Any = None


@dataclass(frozen=True)
class Sample:
    """The laps timed between two reference-loop runs."""

    ref_s: float              # mean of the reference loop before and after
    laps: Tuple[Lap, ...]

    def value_s(self, lap: Lap) -> float:
        """*lap*'s drift-normalised time, in nominal seconds."""
        return lap.raw_s / self.ref_s * NOMINAL_S


def timed(kind: str, call: Callable[[], Any]) -> Callable[[Clock], List[Lap]]:
    """A bracket body that times one call as a single lap."""

    def body(clock: Clock) -> List[Lap]:
        start = clock()
        result = call()
        return [Lap(kind, clock() - start, result)]

    return body


class Bracket:
    """Times laps between two reference-loop runs.

    *clock* and *loop* are injectable so a test can slow both by the
    same factor and check that the normalised value does not move.
    """

    def __init__(self, clock: Clock = time.perf_counter,
                 loop: Callable[[], Any] = reference_loop) -> None:
        self._clock = clock
        self._loop = loop

    def reference(self) -> float:
        """Wall time of one reference-loop pass."""
        start = self._clock()
        self._loop()
        return self._clock() - start

    def measure(self, body: Callable[[Clock], Sequence[Lap]]) -> Sample:
        """Collect garbage, then run loop, *body*, loop.

        *body* gets the bracket's clock and returns the laps it timed.
        Work it does outside its laps (waiting for a background thread
        to go idle) is not counted, so the closing loop runs on a quiet
        process.  The collection happens before the first loop, so every
        sample starts without inherited allocation debt.
        """
        gc.collect()
        before = self.reference()
        laps = tuple(body(self._clock))
        after = self.reference()
        return Sample(ref_s=(before + after) / 2.0, laps=laps)


def quantile(values, q: float) -> float:
    """The *q* quantile by linear interpolation (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
