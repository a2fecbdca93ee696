"""Tracer unit tests, driven by a fake clock for exact durations."""

from __future__ import annotations

import pytest

from repro.obs import PHASE_NAMES, PRIMITIVES, PrimitiveEvent, Tracer


class FakeClock:
    """A monotonic clock advancing 1.0 per tick."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


@pytest.fixture
def tracer() -> Tracer:
    return Tracer(clock=FakeClock())


class TestSpans:
    def test_nesting_records_parent_ids(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span_id() == inner.span_id
            assert tracer.current_span_id() == outer.span_id
        assert tracer.current_span_id() is None
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_fake_clock_gives_exact_durations(self, tracer):
        with tracer.span("outer"):          # start t=1
            with tracer.span("inner"):      # start t=2, end t=3
                pass
        # outer ends at t=4
        outer, inner = tracer.spans
        assert inner.duration == 1.0
        assert outer.duration == 3.0

    def test_span_ids_are_unique_and_ordered(self, tracer):
        for name in PHASE_NAMES:
            with tracer.span(name, kind="phase"):
                pass
        ids = [s.span_id for s in tracer.spans]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_end_span_closes_abandoned_children(self, tracer):
        outer = tracer.start_span("outer")
        inner = tracer.start_span("inner")  # never closed explicitly
        tracer.end_span(outer)
        assert inner.end is not None
        assert outer.end is not None
        assert tracer.current_span_id() is None

    def test_open_span_reports_elapsed_so_far(self, tracer):
        record = tracer.start_span("open")  # start t=1
        assert record.open
        assert record.duration == 1.0       # clock reads t=2
        assert record.duration == 2.0       # ... and keeps advancing
        tracer.end_span(record)             # end t=4
        assert not record.open
        assert record.duration == 3.0       # frozen once closed

    def test_hand_built_open_record_without_clock_reports_zero(self):
        from repro.obs import SpanRecord

        record = SpanRecord(span_id=1, parent_id=None, name="detached")
        assert record.open
        assert record.duration == 0.0

    def test_end_span_of_foreign_record_leaves_stack_alone(self, tracer):
        from repro.obs import SpanRecord

        outer = tracer.start_span("outer")
        inner = tracer.start_span("inner")
        foreign = SpanRecord(span_id=99, parent_id=None, name="foreign", start=0.0)
        with pytest.warns(RuntimeWarning, match="not .* the span stack"):
            tracer.end_span(foreign)
        # the open spans of the run must not have been torn down
        assert outer.end is None and inner.end is None
        assert tracer.current_span_id() == inner.span_id
        assert foreign.end is not None  # only the foreign record was closed

    def test_end_span_twice_warns_and_keeps_first_end(self, tracer):
        record = tracer.start_span("once")   # start t=1
        tracer.end_span(record)              # end t=2
        with pytest.warns(RuntimeWarning):
            tracer.end_span(record)
        assert record.end == 2.0
        assert tracer.current_span_id() is None

    def test_attributes_can_be_set_inside_the_scope(self, tracer):
        with tracer.span("phase", kind="phase") as span:
            span.attributes["inds"] = 7
        assert tracer.spans[0].attributes == {"inds": 7}


class TestEvents:
    def test_event_attributed_to_innermost_open_span(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                tracer.record_event(
                    primitive="count_distinct",
                    backend="memory",
                    relations=("r",),
                    attributes=(("a",),),
                    duration=0.5,
                    cache_hit=False,
                    rows_touched=3,
                )
        (event,) = tracer.events
        assert event.span_id == inner.span_id
        assert event == PrimitiveEvent(
            span_id=inner.span_id,
            primitive="count_distinct",
            backend="memory",
            relations=("r",),
            attributes=(("a",),),
            duration=0.5,
            cache_hit=False,
            rows_touched=3,
        )

    def test_event_outside_any_span_has_no_span_id(self, tracer):
        tracer.record_event(
            primitive="join_count",
            backend="memory",
            relations=("r", "s"),
            attributes=(("a",), ("b",)),
            duration=0.0,
            cache_hit=True,
            rows_touched=0,
        )
        (event,) = tracer.events
        assert event.span_id is None

    def test_events_are_immutable(self, tracer):
        tracer.record_event(
            primitive="fd_holds",
            backend="memory",
            relations=("r",),
            attributes=(("a",), ("b",)),
            duration=0.0,
            cache_hit=False,
            rows_touched=1,
        )
        (event,) = tracer.events
        with pytest.raises(AttributeError):
            event.primitive = "join_count"


class TestOneStore:
    def test_spans_and_events_are_views_of_the_bus_history(self, tracer):
        with tracer.span("outer") as outer:
            tracer.record_event(
                primitive="fd_holds",
                backend="memory",
                relations=("r",),
                attributes=(("a",), ("b",)),
                duration=0.25,
                cache_hit=False,
                rows_touched=2,
            )
            outer.attributes["fds"] = 1
        history = tracer.live_bus.history()
        assert [r["type"] for r in history] == ["span-open", "primitive", "span-close"]
        assert history[1]["attributes"] == [["a"], ["b"]]
        (span,) = tracer.spans
        assert (span.span_id, span.attributes) == (outer.span_id, {"fds": 1})
        assert span.duration == outer.duration
        assert [e.attributes for e in tracer.events] == [(("a",), ("b",))]
        # the tracer keeps no list of its own beyond the open-span stack
        assert not [v for v in vars(tracer).values() if isinstance(v, list) and v]


def test_module_constants_match_the_paper():
    assert PHASE_NAMES == (
        "IND-Discovery", "LHS-Discovery", "RHS-Discovery", "Restruct", "Translate",
    )
    assert PRIMITIVES == ("count_distinct", "join_count", "fd_holds", "inclusion_holds")
