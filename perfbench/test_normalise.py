"""The reference-loop normaliser cancels a uniform slowdown.

Run with ``python3 -m pytest perfbench/test_normalise.py``.
"""

import statistics
import time

from normalise import NOMINAL_S, Bracket, Lap, quantile, reference_loop, timed


class FakeClock:
    """A clock that only moves when work is charged to it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def charge(self, seconds: float) -> None:
        self.now += seconds


def _bracket(clock: FakeClock, slowdown: float, loop_s: float = 0.007) -> Bracket:
    return Bracket(clock=clock, loop=lambda: clock.charge(loop_s * slowdown))


def test_uniform_slowdown_leaves_normalised_value_unchanged():
    for slowdown in (1.0, 1.5, 3.0):
        clock = FakeClock()
        bracket = _bracket(clock, slowdown)
        sample = bracket.measure(timed("run", lambda: clock.charge(0.35 * slowdown)))
        lap = sample.laps[0]
        assert abs(lap.raw_s - 0.35 * slowdown) < 1e-12
        assert abs(sample.value_s(lap) - 0.35) < 1e-9


def test_slowdown_between_loops_is_averaged():
    """A slowdown that starts mid-sample is half-corrected, never amplified."""
    clock = FakeClock()
    speed = {"factor": 1.0}

    def loop():
        clock.charge(0.007 * speed["factor"])

    def work():
        clock.charge(0.35)
        speed["factor"] = 2.0

    sample = Bracket(clock=clock, loop=loop).measure(timed("run", work))
    assert abs(sample.ref_s - 0.0105) < 1e-12
    assert 0.35 * 0.007 / 0.014 < sample.value_s(sample.laps[0]) < 0.35


def test_scaled_real_clock_moves_raw_but_not_normalised():
    """Real work timed on a clock running at twice the rate."""

    def work():
        for _ in range(3):
            reference_loop()

    raw = {1.0: [], 2.0: []}
    normalised = {1.0: [], 2.0: []}
    for _ in range(15):
        # interleaved, so the machine's own drift reaches both clocks alike
        for scale in raw:
            bracket = Bracket(clock=lambda s=scale: time.perf_counter() * s)
            sample = bracket.measure(timed("run", work))
            raw[scale].append(sample.laps[0].raw_s)
            normalised[scale].append(sample.value_s(sample.laps[0]))

    median = statistics.median
    assert median(raw[2.0]) / median(raw[1.0]) > 1.6
    assert abs(median(normalised[2.0]) / median(normalised[1.0]) - 1.0) < 0.1
    # three loops of work read as about three nominal loops
    assert 2.0 * NOMINAL_S < median(normalised[1.0]) < 4.5 * NOMINAL_S


def test_laps_share_one_reference():
    clock = FakeClock()

    def body(now):
        start = now()
        clock.charge(0.1)
        middle = now()
        clock.charge(0.02)
        return [Lap("run", middle - start), Lap("hit", now() - middle)]

    sample = _bracket(clock, 2.0).measure(body)
    assert [lap.kind for lap in sample.laps] == ["run", "hit"]
    assert abs(sample.value_s(sample.laps[0]) - 0.05) < 1e-9
    assert abs(sample.value_s(sample.laps[1]) - 0.01) < 1e-9


def test_quantile_interpolates():
    assert quantile([3, 1, 2], 0.5) == 2
    assert quantile(list(range(1, 5)), 0.75) == 3.25
    assert quantile([7], 0.9) == 7
