"""Hotspot-profile unit tests: exclusive-time math and the exporter.

Driven by a manual clock so every duration is exact: the tests pin the
inclusive/self arithmetic for nested, overlapping, zero-duration and
still-open spans, then the flamegraph export derived from it.  Every
view reads the tracer's live capture, as ``--trace`` writes it.
"""

from __future__ import annotations

import pytest

from repro.obs import Tracer, live_records
from repro.obs.profile import (
    collapsed_stacks,
    profile_from_records,
    render_profile,
    write_collapsed,
)
from tests.obs.test_legacy_trace import LIVE_FIXTURE, TRACE_FIXTURE, same_run


class ManualClock:
    """A clock the test advances explicitly (seconds)."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def clock() -> ManualClock:
    return ManualClock()


@pytest.fixture
def tracer(clock) -> Tracer:
    tracer = Tracer(clock=clock)
    tracer.live()
    return tracer


def capture(tracer):
    """*tracer*'s live capture, header first."""
    return live_records(tracer.live_bus)


def profile_of(tracer):
    return profile_from_records(capture(tracer))


def captured_at(tracer, clock, t):
    """Capture a still-running run at time *t*: its last record then."""
    clock.t = t
    tracer.progress("captured")


def event(tracer, primitive="count_distinct", start=0.0, duration=0.0,
          cache_hit=False, rows=0):
    tracer.record_event(
        primitive=primitive,
        backend="memory",
        relations=("r",),
        attributes=(("a",),),
        start=start,
        duration=duration,
        cache_hit=cache_hit,
        rows_touched=rows,
    )


class TestExclusiveTime:
    def test_child_time_subtracts_from_parent_self(self, tracer, clock):
        parent = tracer.start_span("parent")          # 0 .. 10
        clock.t = 2.0
        child = tracer.start_span("child")            # 2 .. 5
        clock.t = 5.0
        tracer.end_span(child)
        clock.t = 10.0
        tracer.end_span(parent)
        profile = profile_of(tracer)
        assert profile["spans"]["parent"]["inclusive_ms"] == 10000.0
        assert profile["spans"]["parent"]["self_ms"] == 7000.0
        assert profile["spans"]["child"]["self_ms"] == 3000.0

    def test_sequential_nested_spans_all_subtract(self, tracer, clock):
        parent = tracer.start_span("parent")          # 0 .. 10
        clock.t = 1.0
        first = tracer.start_span("step")             # 1 .. 4
        clock.t = 4.0
        tracer.end_span(first)
        second = tracer.start_span("step")            # 4 .. 9
        clock.t = 9.0
        tracer.end_span(second)
        clock.t = 10.0
        tracer.end_span(parent)
        profile = profile_of(tracer)
        assert profile["spans"]["step"]["count"] == 2
        assert profile["spans"]["step"]["inclusive_ms"] == 8000.0
        assert profile["spans"]["parent"]["self_ms"] == 2000.0

    def test_event_time_subtracts_from_its_span(self, tracer, clock):
        span = tracer.start_span("phase", kind="phase")   # 0 .. 10
        event(tracer, start=1.0, duration=4.0)
        clock.t = 10.0
        tracer.end_span(span)
        profile = profile_of(tracer)
        assert profile["spans"]["phase"]["self_ms"] == 6000.0
        assert profile["phases"]["phase"]["queries"] == 1

    def test_zero_duration_span_has_zero_times(self, tracer, clock):
        span = tracer.start_span("instant")
        tracer.end_span(span)                          # same tick
        profile = profile_of(tracer)
        assert profile["spans"]["instant"]["inclusive_ms"] == 0.0
        assert profile["spans"]["instant"]["self_ms"] == 0.0

    def test_open_parent_self_time_is_clamped_at_zero(self, tracer, clock):
        # the parent is exported mid-run: its elapsed-so-far (5 s) is
        # smaller than what its finished children account for (3 s span
        # + 4 s event), so unclamped self time would be negative
        tracer.start_span("parent")                    # open, started at 0
        clock.t = 1.0
        child = tracer.start_span("child")             # 1 .. 4
        clock.t = 4.0
        tracer.end_span(child)
        event(tracer, start=4.0, duration=4.0)
        captured_at(tracer, clock, 5.0)
        profile = profile_of(tracer)
        assert profile["spans"]["parent"]["open"] is True
        assert profile["spans"]["parent"]["inclusive_ms"] == 5000.0
        assert profile["spans"]["parent"]["self_ms"] == 0.0

    def test_open_leaf_span_reports_elapsed_so_far(self, tracer, clock):
        tracer.start_span("running")
        captured_at(tracer, clock, 3.0)
        profile = profile_of(tracer)
        assert profile["spans"]["running"]["inclusive_ms"] == 3000.0
        assert profile["spans"]["running"]["self_ms"] == 3000.0

    def test_render_marks_open_spans(self, tracer, clock):
        tracer.start_span("running")
        captured_at(tracer, clock, 1.0)
        text = render_profile(profile_of(tracer))
        assert "running (open)" in text
        assert "# Hotspots" in text


class TestPhaseBreakdown:
    def build(self, tracer, clock):
        root = tracer.start_span("pipeline", kind="pipeline")  # 0 .. 20
        clock.t = 1.0
        phase = tracer.start_span("IND-Discovery", kind="phase")  # 1 .. 11
        event(tracer, "count_distinct", start=2.0, duration=1.0, rows=50)
        event(tracer, "count_distinct", start=3.0, duration=0.0,
              cache_hit=True)
        clock.t = 4.0
        inner = tracer.start_span("engine")            # 4 .. 6
        event(tracer, "join_count", start=5.0, duration=1.0, rows=10)
        clock.t = 6.0
        tracer.end_span(inner)
        clock.t = 11.0
        tracer.end_span(phase)
        clock.t = 20.0
        tracer.end_span(root)

    def test_phase_rollup_covers_the_subtree(self, tracer, clock):
        self.build(tracer, clock)
        profile = profile_of(tracer)
        phase = profile["phases"]["IND-Discovery"]
        # the join_count under the nested engine span still counts
        assert phase["queries"] == 3
        assert phase["primitives"]["count_distinct"]["calls"] == 2
        assert phase["primitives"]["count_distinct"]["hit_rate"] == 0.5
        assert phase["primitives"]["count_distinct"]["rows_touched"] == 50
        assert phase["primitives"]["join_count"]["calls"] == 1
        assert phase["self_ms"] == (10 - 2 - 1 - 0) * 1000.0

    def test_run_total_primitives_match_events(self, tracer, clock):
        self.build(tracer, clock)
        profile = profile_of(tracer)
        assert profile["totals"]["queries"] == 3
        assert profile["primitives"]["count_distinct"]["duration_ms"] == 1000.0


class TestCollapsedStacks:
    def test_stacks_fold_events_as_leaf_frames(self, tracer, clock):
        root = tracer.start_span("pipeline")           # 0 .. 10
        clock.t = 1.0
        phase = tracer.start_span("IND-Discovery", kind="phase")  # 1 .. 7
        event(tracer, "count_distinct", start=2.0, duration=2.0)
        clock.t = 7.0
        tracer.end_span(phase)
        clock.t = 10.0
        tracer.end_span(root)
        lines = dict(
            line.rsplit(" ", 1) for line in collapsed_stacks(capture(tracer))
        )
        # values are integer microseconds of self time
        assert lines["pipeline"] == str(4 * 1_000_000)
        assert lines["pipeline;IND-Discovery"] == str(4 * 1_000_000)
        assert lines["pipeline;IND-Discovery;count_distinct"] == str(2 * 1_000_000)

    def test_write_collapsed_round_trips(self, tracer, clock, tmp_path):
        with tracer.span("pipeline"):
            event(tracer, start=0.5, duration=0.25)
            clock.t = 1.0
        path = tmp_path / "trace.collapsed"
        write_collapsed(capture(tracer), str(path))
        for line in path.read_text().splitlines():
            stack, value = line.rsplit(" ", 1)
            assert stack
            assert int(value) >= 0

    def test_event_outside_any_span_gets_a_synthetic_root(self, tracer):
        event(tracer, "fd_holds", start=0.0, duration=1.0)
        lines = collapsed_stacks(capture(tracer))
        assert lines == [f"(no span);fd_holds {1_000_000}"]


class TestFromFile:
    def test_profile_from_reread_trace_matches_live(self, tracer, clock, tmp_path):
        from repro.obs import read_live_jsonl, write_live_jsonl
        from repro.obs.profile import profile_from_stats

        with tracer.span("pipeline"):
            with tracer.span("IND-Discovery", kind="phase"):
                event(tracer, start=2.0, duration=1.0, rows=3)
                clock.t = 5.0
            clock.t = 9.0
        live = profile_from_stats(tracer.live_bus.stats())
        path = tmp_path / "t.jsonl"
        write_live_jsonl(tracer.live_bus, str(path))
        reread = profile_from_records(read_live_jsonl(str(path)))
        assert reread == live


class TestMemoryProfiling:
    def test_default_tracer_records_no_memory_attributes(self):
        tracer = Tracer()
        with tracer.span("work"):
            _ = [0] * 1000
        assert "mem_peak_kb" not in tracer.spans[0].attributes
        assert tracer.profiles_memory is False

    def test_peaks_are_recorded_per_span(self):
        tracer = Tracer(profile_memory=True)
        assert tracer.profiles_memory is True
        with tracer.span("outer"):
            with tracer.span("inner"):
                ballast = [0] * 200_000       # ~1.6 MB of pointers
            del ballast
        outer, inner = tracer.spans
        assert inner.attributes["mem_peak_kb"] > 1000.0
        assert outer.attributes["mem_peak_kb"] >= inner.attributes["mem_peak_kb"]
        assert inner.attributes["mem_current_kb"] >= 0.0

    def test_peaks_survive_the_jsonl_round_trip(self, tmp_path):
        from repro.obs import read_live_jsonl, write_live_jsonl

        tracer = Tracer(profile_memory=True)
        tracer.live()
        with tracer.span("phase", kind="phase"):
            _ = [0] * 10_000
        path = tmp_path / "mem.jsonl"
        write_live_jsonl(tracer.live_bus, str(path))
        spans = [r for r in read_live_jsonl(str(path)) if r.get("type") == "span-close"]
        assert spans[0]["attributes"]["mem_peak_kb"] >= 0.0


class TestLiveCapture:
    """A live capture profiles, flames and diffs exactly as the legacy
    trace of the same run (the committed same-run fixture pair)."""

    def test_profile_and_stacks_equal_the_trace(self):
        live, trace = same_run()
        assert profile_from_records(live) == profile_from_records(trace)
        assert collapsed_stacks(live) == collapsed_stacks(trace)

    def test_progress_and_end_records_carry_no_time(self, tracer, clock):
        from repro.obs.profile import profile_from_stats

        TestPhaseBreakdown().build(tracer, clock)
        tracer.progress("after the run")
        tracer.live_bus.publish("end", job="job-1", state="done")
        assert profile_of(tracer) == profile_from_stats(tracer.live_bus.stats())
        stacks = [line.rsplit(" ", 1)[0] for line in collapsed_stacks(capture(tracer))]
        assert stacks == sorted(stacks) and "(no span)" not in " ".join(stacks)

    def test_cli_profile_and_diff_accept_a_capture(self, tmp_path, capsys):
        from repro.cli import main

        outputs = []
        for label, path in (("trace", TRACE_FIXTURE), ("live", LIVE_FIXTURE)):
            flame = tmp_path / f"{label}.collapsed"
            assert main(["profile", path, "--flame", str(flame)]) == 0
            outputs.append(capsys.readouterr().out.replace(str(flame), "FLAME"))
        assert outputs[0] == outputs[1]
        assert (tmp_path / "trace.collapsed").read_bytes() == (
            tmp_path / "live.collapsed"
        ).read_bytes()
        assert main(["trace", "diff", TRACE_FIXTURE, LIVE_FIXTURE]) == 0
        assert "+0.000" in capsys.readouterr().out
