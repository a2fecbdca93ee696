"""Reading a recorded run: capture round-trip, derived metrics, rendering."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    LIVE_FORMAT,
    METRICS_FORMAT,
    Tracer,
    capture_stream,
    live_records,
    metrics_from_records,
    metrics_from_stats,
    read_live_jsonl,
    read_trace_jsonl,
    summarize_trace,
    write_live_jsonl,
)


class TickClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.001
        return self.t


def metrics_of(tracer):
    """The metrics document of *tracer*'s live fold."""
    return metrics_from_stats(tracer.live_bus.stats())


@pytest.fixture
def traced():
    """A watched tracer with a root span, two phases and three events."""
    tracer = Tracer(clock=TickClock())
    tracer.live()
    with tracer.span("pipeline", kind="pipeline"):
        with tracer.span("IND-Discovery", kind="phase"):
            tracer.record_event(
                primitive="count_distinct", backend="memory",
                relations=("r",), attributes=(("a",),),
                start=tracer.now(), duration=0.002,
                cache_hit=False, rows_touched=10,
            )
            tracer.record_event(
                primitive="count_distinct", backend="memory",
                relations=("r",), attributes=(("a",),),
                start=tracer.now(), duration=0.0,
                cache_hit=True, rows_touched=0,
            )
        with tracer.span("LHS-Discovery", kind="phase"):
            tracer.record_event(
                primitive="fd_holds", backend="sqlite",
                relations=("r",), attributes=(("a",), ("b",)),
                start=tracer.now(), duration=0.001,
                cache_hit=False, rows_touched=4,
            )
    return tracer


class TestJsonlRoundTrip:
    def test_records_survive_write_and_reread_exactly(self, traced, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_live_jsonl(traced.live_bus, path)
        assert read_live_jsonl(path) == live_records(traced.live_bus)

    def test_header_line_carries_format_and_counts(self, traced, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_live_jsonl(traced.live_bus, path)
        with open(path) as handle:
            header = json.loads(handle.readline())
        assert header == {
            "type": "header", "format": LIVE_FORMAT, "events": 9,
            "counts": {"span-open": 3, "span-close": 3, "primitive": 3},
        }

    def test_records_are_ordered_by_start(self, traced):
        records = live_records(traced.live_bus)[1:]
        assert [r["seq"] for r in records] == list(range(1, len(records) + 1))
        stamps = [r["ts_ms"] for r in records]
        assert stamps == sorted(stamps)
        assert records[0]["name"] == "pipeline"

    def test_reading_a_non_trace_file_is_a_value_error(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text('{"format": "something/else@9"}\n')
        for read in (read_live_jsonl, read_trace_jsonl):
            with pytest.raises(ValueError):
                read(str(path))

    def test_reading_an_empty_file_is_a_value_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        for read in (read_live_jsonl, read_trace_jsonl):
            with pytest.raises(ValueError):
                read(str(path))

    def test_truncated_line_reports_file_and_line_number(self, traced, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_live_jsonl(traced.live_bus, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + [lines[1][: len(lines[1]) // 2]]))
        with pytest.raises(ValueError, match=r"trace\.jsonl:2: invalid JSON"):
            read_live_jsonl(str(path))


class TestOpenSpans:
    @pytest.fixture
    def half_open(self):
        """A watched tracer captured before its root span closed."""
        tracer = Tracer(clock=TickClock())
        tracer.live()
        tracer.start_span("pipeline", kind="pipeline")
        with tracer.span("IND-Discovery", kind="phase"):
            pass
        return live_records(tracer.live_bus)

    def closes(self, capture):
        return {
            r["name"]: r for r in capture_stream(capture) if r["type"] == "span-close"
        }

    def test_open_spans_are_flagged_in_records(self, half_open):
        spans = self.closes(half_open)
        assert spans["pipeline"]["open"] is True
        assert "open" not in spans["IND-Discovery"]

    def test_open_span_duration_is_elapsed_so_far(self, half_open):
        spans = self.closes(half_open)
        opened = next(r for r in half_open if r.get("name") == "pipeline")
        assert spans["pipeline"]["duration_ms"] > 0
        assert spans["pipeline"]["duration_ms"] == pytest.approx(
            half_open[-1]["ts_ms"] - opened["ts_ms"]
        )

    def test_summarize_marks_open_spans(self, half_open):
        text = summarize_trace(half_open)
        assert "- pipeline [pipeline]" in text
        assert "(open)" in text
        assert text.count("(open)") == 1


class TestMetrics:
    def test_live_and_reread_summaries_agree(self, traced, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_live_jsonl(traced.live_bus, path)
        assert metrics_from_records(read_live_jsonl(path)) == metrics_of(traced)

    def test_totals_summarize_the_event_stream(self, traced):
        metrics = metrics_of(traced)
        assert metrics["format"] == METRICS_FORMAT
        assert metrics["totals"]["queries"] == 3
        assert metrics["totals"]["cache_hits"] == 1
        assert metrics["totals"]["rows_touched"] == 14
        assert metrics["totals"]["spans"] == 3

    def test_per_phase_queries_count_subtree_events(self, traced):
        phases = metrics_of(traced)["phases"]
        assert phases["IND-Discovery"]["queries"] == 2
        assert phases["LHS-Discovery"]["queries"] == 1

    def test_per_primitive_and_per_backend_rollups(self, traced):
        metrics = metrics_of(traced)
        cd = metrics["primitives"]["count_distinct"]
        assert cd["calls"] == 2
        assert cd["cache_hits"] == 1 and cd["cache_misses"] == 1
        assert cd["rows_touched"] == 10
        assert metrics["backends"]["memory"]["calls"] == 2
        assert metrics["backends"]["sqlite"]["calls"] == 1

    def test_nested_span_events_roll_up_to_the_enclosing_phase(self):
        tracer = Tracer(clock=TickClock())
        tracer.live()
        with tracer.span("pipeline", kind="pipeline"):
            with tracer.span("Restruct", kind="phase"):
                with tracer.span("fd-narrowing"):  # an inner, non-phase span
                    tracer.record_event(
                        primitive="fd_holds", backend="memory",
                        relations=("r",), attributes=(("a",), ("b",)),
                        start=tracer.now(), duration=0.0,
                        cache_hit=False, rows_touched=1,
                    )
        assert metrics_of(tracer)["phases"]["Restruct"]["queries"] == 1


class TestSummarize:
    def test_renders_span_tree_and_primitive_table(self, traced):
        text = summarize_trace(live_records(traced.live_bus))
        assert "- pipeline [pipeline]" in text
        assert "  - IND-Discovery [phase]" in text
        assert "# Primitives" in text
        assert "count_distinct" in text and "fd_holds" in text

    def test_empty_tracer_renders_header_only(self):
        text = summarize_trace(live_records(Tracer().live()))
        assert text.startswith("# Trace — 0 span(s), 0 event(s)")
