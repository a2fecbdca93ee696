"""The live bus: ordering, attach time, cursor reads, the file format."""

import sys
import threading
import time

import pytest

from repro.obs.live import (
    LIVE_FORMAT,
    LiveBus,
    RunStats,
    live_records,
    read_live_jsonl,
    write_live_jsonl,
)
from repro.obs.tracer import Tracer


def run_traced(tracer):
    """A tiny two-phase run on *tracer*."""
    with tracer.span("pipeline", kind="pipeline"):
        with tracer.span("IND-Discovery", kind="phase"):
            tracer.progress("probing", current=1, total=2)
            tracer.record_event(
                primitive="count_distinct", backend="memory",
                relations=("PERSON",), attributes=(("ssn",),),
                start=0.0, duration=0.001, cache_hit=False, rows_touched=4,
            )
        with tracer.span("LHS-Discovery", kind="phase"):
            pass


class TestBusSemantics:
    def test_sequence_is_monotonic_and_total(self):
        tracer = Tracer()
        bus = tracer.live()
        run_traced(tracer)
        records = bus.history()
        sequences = [record["seq"] for record in records]
        assert sequences == list(range(1, len(records) + 1))
        assert bus.last_seq == max(sequences)

    def test_stream_carries_every_phase_boundary_and_progress(self):
        tracer = Tracer()
        bus = tracer.live()
        run_traced(tracer)
        records = bus.history()
        opens = [r["name"] for r in records
                 if r["type"] == "span-open" and r["kind"] == "phase"]
        closes = [r["name"] for r in records
                  if r["type"] == "span-close" and r["kind"] == "phase"]
        assert opens == ["IND-Discovery", "LHS-Discovery"]
        assert closes == ["IND-Discovery", "LHS-Discovery"]
        progress = [r for r in records if r["type"] == "progress"]
        assert progress and progress[0]["phase"] == "IND-Discovery"
        primitive = [r for r in records if r["type"] == "primitive"]
        assert primitive[0]["primitive"] == "count_distinct"
        assert primitive[0]["rows_touched"] == 4

    def test_zero_overhead_without_subscribers(self):
        tracer = Tracer()
        run_traced(tracer)
        # no bus was ever attached: the hot path stayed a None test
        assert tracer.live_bus is None
        tracer.progress("ignored")
        assert tracer.live_bus is None


class TestMidRunAttach:
    """A bus attaches before the first span; readers may start mid-run."""

    def test_subscriber_attached_mid_run_gets_open_span_snapshot(self):
        tracer = Tracer()
        bus = tracer.live()  # bus attached from the start
        with tracer.span("pipeline", kind="pipeline"):
            with tracer.span("RHS-Discovery", kind="phase"):
                # a reader that starts paging mid-run sees both open
                # spans, in stack order, as they were published live
                snapshot = bus.history(since=0)
                assert [r["name"] for r in snapshot] == [
                    "pipeline", "RHS-Discovery",
                ]
                assert all(r["type"] == "span-open" for r in snapshot)
                assert not any(r.get("snapshot") for r in snapshot)
                cursor = snapshot[-1]["seq"]
                tracer.progress("mid-run tick")
        # ...then the tail after its cursor: the close events still arrive
        tail = bus.history(since=cursor)
        assert [r["type"] for r in tail] == [
            "progress", "span-close", "span-close",
        ]

    def test_bus_attached_mid_run_is_an_error(self):
        tracer = Tracer()
        with tracer.span("pipeline", kind="pipeline"):
            # the history would miss the open spans: refused, one line
            with pytest.raises(RuntimeError, match="before the tracer's first span"):
                tracer.live()
        assert tracer.live_bus is None
        # a finished run is past its first span too
        with pytest.raises(RuntimeError):
            tracer.live()

    def test_a_bus_attached_first_is_returned_mid_run(self):
        tracer = Tracer()
        bus = tracer.live()
        with tracer.span("pipeline", kind="pipeline"):
            assert tracer.live() is bus

    def test_replay_from_resumes_after_a_gap(self):
        tracer = Tracer()
        tracer.live()
        run_traced(tracer)
        full = tracer.live_bus.history()
        cut = full[3]["seq"]
        resumed = tracer.live_bus.history(since=cut)
        assert [r["seq"] for r in resumed] == [
            r["seq"] for r in full if r["seq"] > cut
        ]


class TestCursorReads:
    """Readers page the history by seq and wait on the bus for more."""

    def test_a_reader_that_never_reads_never_stalls_the_publisher(self):
        tracer = Tracer()
        bus = tracer.live()
        with tracer.span("pipeline", kind="pipeline"):
            for tick in range(50):
                tracer.progress("tick", current=tick, total=50)
        # nothing was read, nothing was lost: a late reader gets it all
        assert bus.last_seq == len(bus.history()) == 52

    def test_a_cursor_page_costs_the_records_it_returns(self):
        bus = LiveBus()
        for tick in range(1000):
            bus.publish("progress", message="tick", current=tick)
        history = bus._history

        class Counting(type(history)):
            visited = 0

            def __iter__(self):
                for record in super().__iter__():
                    Counting.visited += 1
                    yield record

            def __reversed__(self):
                for record in super().__reversed__():
                    Counting.visited += 1
                    yield record

            def __getitem__(self, index):
                page = super().__getitem__(index)
                Counting.visited += len(page) if isinstance(index, slice) else 1
                return page

        bus._history = Counting(history)
        assert [r["seq"] for r in bus.history(since=997)] == [998, 999, 1000]
        assert Counting.visited <= 3

    def test_wait_returns_at_once_when_the_bus_is_ahead(self):
        bus = LiveBus()
        bus.publish("progress", message="a")
        assert bus.wait(0, timeout=0.0) is True

    def test_wait_times_out_on_an_idle_bus(self):
        bus = LiveBus()
        bus.publish("progress", message="a")
        assert bus.wait(1, timeout=0.01) is False

    def test_wait_wakes_on_publish(self):
        bus = LiveBus()
        woke = []
        reader = threading.Thread(
            target=lambda: woke.append(bus.wait(0, timeout=30))
        )
        reader.start()
        deadline = time.monotonic() + 10
        while not bus._waiting and time.monotonic() < deadline:
            time.sleep(0.001)
        started = time.monotonic()
        bus.publish("progress", message="wake up")
        reader.join(timeout=10)
        assert woke == [True]
        assert time.monotonic() - started < 5
        assert bus._waiting == 0


    def test_concurrent_tailers_each_see_every_record_once(self):
        """More readers than cores, a short switch interval: no record
        is lost or repeated and no waiter is left counted."""
        bus = LiveBus()
        total = 2000
        seen = [[] for _ in range(4)]

        def tail(bucket):
            cursor = 0
            while True:
                for record in bus.history(since=cursor):
                    bucket.append(record["seq"])
                    cursor = record["seq"]
                    if record["type"] == "end":
                        return
                bus.wait(cursor, timeout=5)

        def publish():
            for tick in range(total - 1):
                bus.publish("progress", message="tick", current=tick)
            bus.publish("end", job="job-1", state="done")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=tail, args=(b,)) for b in seen]
            threads.append(threading.Thread(target=publish))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for bucket in seen:
            assert bucket == list(range(1, total + 1))
        assert bus._waiting == 0


class TestWholeRunHistory:
    """The history keeps every record the run published."""

    def test_history_keeps_every_record(self):
        bus = LiveBus()
        for tick in range(25):
            bus.publish("progress", message="tick", current=tick)
        assert [r["seq"] for r in bus.history()] == list(range(1, 26))
        assert [r["seq"] for r in bus.history(since=20)] == [21, 22, 23, 24, 25]
        assert bus.history(since=25) == []
        assert bus.history(since=99) == []
        assert bus.stats().events["progress"] == 25


class TestLiveStats:
    """Incremental aggregates maintained at publish time."""

    def test_stats_aggregate_phases_primitives_and_pool(self):
        """Phases and primitives fold; a ``pool`` record from a capture
        of an older version is ignored, not counted."""
        tracer = Tracer()
        tracer.live()
        run_traced(tracer)
        tracer.live_bus.publish("pool", event="respawn")
        stats = tracer.live_bus.stats()
        assert stats.phase_runs == {"IND-Discovery": 1, "LHS-Discovery": 1}
        assert stats.phase_ms["IND-Discovery"] >= 0.0
        assert stats.primitive_calls == {"count_distinct": 1}
        assert stats.primitive_cache_hits == {}
        assert "pool" not in stats.events
        assert stats.events["span-open"] == 3
        assert stats.events["progress"] == 1

    def test_merge_folds_and_copy_is_independent(self):
        call = {"type": "primitive", "primitive": "count_distinct"}
        a = RunStats()
        a.observe(call)
        b = a.copy()
        b.observe(call)
        assert a.primitive_calls == {"count_distinct": 1}
        assert b.primitive_calls == {"count_distinct": 2}
        a.merge(b)
        assert a.primitive_calls == {"count_distinct": 3}

    def test_setup_spans_are_kept_apart_from_phases(self):
        stats = RunStats()
        stats.observe({
            "type": "span-close", "name": "copy", "kind": "setup",
            "duration_ms": 2.0,
        })
        stats.observe({
            "type": "span-close", "name": "Restruct", "kind": "phase",
            "duration_ms": 5.0,
        })
        # phase_ms is what archive trends sum into a run's wall time
        assert stats.phase_ms == {"Restruct": 5.0}
        assert stats.phase_runs == {"Restruct": 1}
        assert stats.setup_ms == {"copy": 2.0}
        restored = RunStats.from_dict(stats.as_dict())
        assert restored.setup_ms == {"copy": 2.0}
        assert RunStats.from_dict({"phase_ms": {"Restruct": 1.0}}).setup_ms == {}

    def test_cache_hits_and_storage_counters(self):
        """Cache hits count; the storage ``counters`` older captures'
        primitive records carry fold as if absent."""
        records = [
            {"type": "primitive", "primitive": "join_count",
             "cache_hit": True, "counters": {"pool_hits": 3}},
            {"type": "primitive", "primitive": "join_count",
             "cache_hit": False, "counters": {"pool_hits": 2}},
        ]
        stats = RunStats.fold(records)
        assert stats.primitive_calls == {"join_count": 2}
        assert stats.primitive_cache_hits == {"join_count": 1}
        without = [{k: v for k, v in r.items() if k != "counters"} for r in records]
        assert stats.as_dict() == RunStats.fold(without).as_dict()
        assert "counters" not in stats.backends[""]


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.live()
        run_traced(tracer)
        path = str(tmp_path / "live.jsonl")
        written = write_live_jsonl(tracer.live_bus, path)
        read = read_live_jsonl(path)
        assert read == written
        assert read[0]["format"] == LIVE_FORMAT
        assert read[0]["events"] == len(read) - 1
        assert read[0]["counts"]["span-open"] == 3

    def test_records_from_a_plain_iterable(self):
        body = [{"type": "progress", "seq": 1, "ts_ms": 0.0, "message": "x"}]
        records = live_records(body)
        assert records[0]["counts"] == {"progress": 1}

    def test_reader_rejects_foreign_and_corrupt_streams(self, tmp_path):
        from repro.util.jsonl import save_jsonl

        wrong = str(tmp_path / "wrong.jsonl")
        save_jsonl([{"format": "repro/trace@1"}], wrong)
        with pytest.raises(ValueError, match="not a repro/live@1"):
            read_live_jsonl(wrong)

        short = str(tmp_path / "short.jsonl")
        save_jsonl(
            [{"type": "header", "format": LIVE_FORMAT, "events": 2},
             {"type": "progress", "seq": 1, "ts_ms": 0.0}],
            short,
        )
        with pytest.raises(ValueError, match="claims 2"):
            read_live_jsonl(short)

        alien = str(tmp_path / "alien.jsonl")
        save_jsonl(
            [{"type": "header", "format": LIVE_FORMAT, "events": 1},
             {"type": "martian", "seq": 1, "ts_ms": 0.0}],
            alien,
        )
        with pytest.raises(ValueError, match="unknown type"):
            read_live_jsonl(alien)


class TestBusClock:
    def test_timestamps_are_relative_and_monotonic(self):
        ticks = iter(float(i) for i in range(100))
        bus = LiveBus(clock=lambda: next(ticks))
        first = bus.publish("progress", message="a")
        second = bus.publish("progress", message="b")
        assert first["ts_ms"] >= 0.0
        assert second["ts_ms"] > first["ts_ms"]
