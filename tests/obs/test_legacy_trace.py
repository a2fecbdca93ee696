"""The legacy ``repro/trace@1`` format still reads, as its live capture.

``same_run.trace.jsonl`` and ``same_run.live.jsonl`` are one demo run
(the paper example, scripted expert) recorded both ways by a version
that still wrote ``repro/trace@1``: its tracer's span and event lists
as a trace, and the live bus attached before the run as a capture.
Every reader takes either file and must render the same thing from
both; and what ``--trace`` writes now has the legacy file's shape.
"""

from __future__ import annotations

import os
import re

from repro.cli import main
from repro.obs import (
    LIVE_FORMAT,
    TRACE_FORMAT,
    capture_stream,
    metrics_from_records,
    read_live_jsonl,
    read_trace_jsonl,
    summarize_trace,
)
from repro.obs.profile import detect_export_kind, diff_views, view_from_export

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_FIXTURE = os.path.join(HERE, "same_run.trace.jsonl")
LIVE_FIXTURE = os.path.join(HERE, "same_run.live.jsonl")


def same_run():
    """``(live capture, legacy trace)`` records of the one demo run."""
    return read_live_jsonl(LIVE_FIXTURE), read_trace_jsonl(TRACE_FIXTURE)


def cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def untimed(text):
    """*text* with every timing figure and the column padding gone."""
    return re.sub(r"\s+", " ", re.sub(r"\d+\.\d+", "T", text))


def test_the_fixtures_are_one_run_in_both_formats():
    live, trace = same_run()
    assert live[0]["format"] == LIVE_FORMAT
    assert trace[0]["format"] == TRACE_FORMAT
    assert trace[0]["spans"] == live[0]["counts"]["span-close"]
    assert trace[0]["events"] == live[0]["counts"]["primitive"]


def test_both_replay_into_the_same_records():
    live, trace = same_run()
    keys = {
        "span-open": ("span", "name", "kind"),
        "span-close": ("span", "name", "kind", "duration_ms", "attributes"),
        "primitive": ("span", "primitive", "duration_ms", "cache_hit", "rows_touched"),
    }

    def shape(records):
        return [
            (r["type"], *(r[key] for key in keys[r["type"]]))
            for r in capture_stream(records)
            if r["type"] in keys
        ]

    assert shape(live) == shape(trace)


def test_summarize_renders_the_same_text(capsys):
    live, trace = same_run()
    assert summarize_trace(live) == summarize_trace(trace)
    assert cli(capsys, "trace", "summarize", LIVE_FIXTURE) == cli(
        capsys, "trace", "summarize", TRACE_FIXTURE
    )


def test_metrics_are_the_same_document():
    live, trace = same_run()
    assert metrics_from_records(live) == metrics_from_records(trace)


def test_profile_and_flame_bytes_are_the_same(tmp_path, capsys):
    outputs, flames = [], []
    for label, path in (("trace", TRACE_FIXTURE), ("live", LIVE_FIXTURE)):
        flame = tmp_path / f"{label}.collapsed"
        out = cli(capsys, "profile", path, "--flame", str(flame))
        outputs.append(out.replace(str(flame), "FLAME"))
        flames.append(flame.read_bytes())
    assert outputs[0] == outputs[1]
    assert flames[0] == flames[1] and flames[0]


def test_report_renders_the_same_html(tmp_path, capsys):
    pages = []
    for label, path in (("trace", TRACE_FIXTURE), ("live", LIVE_FIXTURE)):
        output = tmp_path / f"{label}.html"
        cli(capsys, "report", "--trace", path, "--output", str(output))
        pages.append(output.read_text())
    assert pages[0] == pages[1]
    assert "count_distinct" in pages[0]


def test_diff_between_them_shows_zero_deltas(capsys):
    views = [view_from_export(*detect_export_kind(p)) for p in (TRACE_FIXTURE, LIVE_FIXTURE)]
    diff = diff_views(*views)
    rows = diff["spans"] + diff["phases"] + diff["setup"] + diff["primitives"]
    assert rows and all(row["delta_ms"] == 0.0 for row in rows)
    out = cli(capsys, "trace", "diff", TRACE_FIXTURE, LIVE_FIXTURE)
    assert "## Self time by span" in out


def test_the_demo_trace_has_the_legacy_files_shape(tmp_path, capsys):
    """Span names, kinds, nesting, per-span queries, attributes and the
    primitive calls, hits and rows: all but the timings match."""
    path = tmp_path / "demo.trace.jsonl"
    cli(capsys, "demo", "--trace", str(path))
    written = read_live_jsonl(str(path))
    assert untimed(summarize_trace(written)) == untimed(
        summarize_trace(read_trace_jsonl(TRACE_FIXTURE))
    )


def test_a_capture_with_an_end_record_says_how_it_ended():
    live, _ = same_run()
    end = {"type": "end", "seq": len(live), "ts_ms": 99.0, "job": "job-7", "state": "done"}
    text = summarize_trace(live + [end])
    assert text.endswith("# End — job-7 finished done")
    assert text.startswith(summarize_trace(live))
