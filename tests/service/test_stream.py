"""The SSE endpoint: replay, heartbeats, slow clients, concurrent watchers."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.jobs import JobManager
from repro.service.server import build_server
from repro.service.stream import (
    format_comment,
    format_event,
    parse_sse,
    sse_events,
)
from repro.workloads.paper_example import build_paper_database, paper_equijoins

from tests.service.test_jobs import gated_database


@pytest.fixture
def service():
    """A live server + manager; yields (manager, base URL)."""
    manager = JobManager(runners=2)
    server = build_server(manager, port=0, heartbeat=0.2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    yield manager, f"http://{host}:{port}", server
    server.shutdown()
    server.server_close()
    manager.shutdown()
    thread.join(timeout=5)


def submit_paper_job(manager):
    return manager.submit(build_paper_database(), equijoins=paper_equijoins())


class TestWireFormat:
    def test_format_and_parse_round_trip(self):
        record = {"type": "progress", "seq": 7, "ts_ms": 1.5, "message": "x"}
        wire = (
            format_comment("heartbeat")
            + format_event(record)
            + format_comment("heartbeat")
        )
        blocks = list(parse_sse(wire.decode("utf-8").splitlines(keepends=True)))
        assert len(blocks) == 1
        event, event_id, data = blocks[0]
        assert event == "progress"
        assert event_id == "7"
        assert json.loads(data) == record

    def test_parse_handles_multiline_data_and_missing_terminator(self):
        lines = ["event: end\n", "data: {\n", "data: }\n"]
        [(event, _id, data)] = list(parse_sse(lines))
        assert event == "end"
        assert data == "{\n}"


class TestStreaming:
    def test_full_run_streams_every_phase_boundary(self, service):
        manager, base, _server = service
        job = submit_paper_job(manager)
        records = list(sse_events(f"{base}/jobs/{job.id}/events", timeout=30))
        opens = [r["name"] for r in records
                 if r["type"] == "span-open" and r.get("kind") == "phase"]
        assert opens == [
            "IND-Discovery", "LHS-Discovery", "RHS-Discovery",
            "Restruct", "Translate",
        ]
        closes = {r["name"] for r in records
                  if r["type"] == "span-close" and r.get("kind") == "phase"}
        assert closes == set(opens)
        # >= 1 progress tick inside each discovery phase
        for phase in ("IND-Discovery", "LHS-Discovery", "RHS-Discovery"):
            assert any(
                r["type"] == "progress" and r.get("phase") == phase
                for r in records
            ), f"no progress event inside {phase}"
        assert records[-1]["type"] == "end"
        assert records[-1]["state"] == "done"

    def test_last_event_id_replays_exactly_the_tail(self, service):
        manager, base, _server = service
        job = submit_paper_job(manager)
        url = f"{base}/jobs/{job.id}/events"
        full = list(sse_events(url, timeout=30))
        cut = full[len(full) // 2]["seq"]
        resumed = list(sse_events(url, last_event_id=cut, timeout=30))
        assert [r["seq"] for r in resumed] == [
            r["seq"] for r in full if r["seq"] > cut
        ]

    def test_bad_last_event_id_is_a_400(self, service):
        manager, base, _server = service
        job = submit_paper_job(manager)
        manager.result(job.id, timeout=30)
        request = urllib.request.Request(
            f"{base}/jobs/{job.id}/events",
            headers={"Last-Event-ID": "banana"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_cached_job_streams_a_bare_end_sentinel(self, service):
        manager, base, _server = service
        first = submit_paper_job(manager)
        manager.result(first.id, timeout=30)
        twin = submit_paper_job(manager)
        assert twin.cached
        records = list(sse_events(f"{base}/jobs/{twin.id}/events", timeout=10))
        assert [r["type"] for r in records] == ["end"]
        assert records[0]["cached"] is True

    def test_concurrent_watchers_see_the_same_stream(self, service):
        manager, base, _server = service
        database, backend = gated_database()
        job = manager.submit(database, equijoins=paper_equijoins())
        url = f"{base}/jobs/{job.id}/events"
        captured = [[] for _ in range(3)]

        def watch(bucket):
            bucket.extend(sse_events(url, timeout=30))

        watchers = [
            threading.Thread(target=watch, args=(bucket,), daemon=True)
            for bucket in captured
        ]
        for thread in watchers:
            thread.start()
        assert backend.entered.wait(timeout=30)
        backend.release.set()
        for thread in watchers:
            thread.join(timeout=30)
            assert not thread.is_alive()
        sequences = [[r["seq"] for r in bucket] for bucket in captured]
        assert sequences[0] == sequences[1] == sequences[2]
        assert captured[0][-1]["type"] == "end"

    def test_heartbeats_flow_while_the_job_is_gated(self, service):
        manager, base, _server = service
        database, backend = gated_database()
        job = manager.submit(database, equijoins=paper_equijoins())
        assert backend.entered.wait(timeout=30)
        # the run is now parked inside IND-Discovery: the stream idles
        request = urllib.request.Request(
            f"{base}/jobs/{job.id}/events",
            headers={"Last-Event-ID": "1000000"},  # nothing to replay
        )
        response = urllib.request.urlopen(request, timeout=10)
        try:
            comments = 0
            for raw in response:
                if raw.decode("utf-8").startswith(":"):
                    comments += 1
                    if comments >= 2:
                        break
        finally:
            response.close()
            backend.release.set()
        assert comments >= 2
        manager.result(job.id, timeout=30)


class TestHistoryReplay:
    """Backlog and tail are one loop over the bus history."""

    def test_a_late_watcher_gets_every_record_once(self, service):
        manager, base, _server = service
        database, backend = gated_database()
        job = manager.submit(database, equijoins=paper_equijoins())
        assert backend.entered.wait(timeout=30)
        # a long stream: well past any page a reader might buffer
        for tick in range(1500):
            job.trace.progress("flood", current=tick)
        backend.release.set()
        manager.result(job.id, timeout=30)

        # a watcher that reads nothing until the job has finished
        captured = []

        def watch():
            captured.extend(
                sse_events(f"{base}/jobs/{job.id}/events", timeout=30)
            )

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        watcher.join(timeout=30)
        assert not watcher.is_alive(), "the watcher hung before the end"
        assert [r["seq"] for r in captured] == list(
            range(1, job.live.last_seq + 1)
        )
        assert captured == job.live.history()
        assert captured[-1]["type"] == "end"

    def test_a_burst_mid_tail_arrives_complete_and_in_order(self, service):
        manager, base, _server = service
        database, backend = gated_database()
        job = manager.submit(database, equijoins=paper_equijoins())
        assert backend.entered.wait(timeout=30)
        captured = []

        def watch():
            captured.extend(
                sse_events(f"{base}/jobs/{job.id}/events", timeout=30)
            )

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        time.sleep(0.3)  # let the stream connect and enter tail mode
        for tick in range(800):
            job.trace.progress("burst", current=tick)
        backend.release.set()
        manager.result(job.id, timeout=30)
        watcher.join(timeout=30)
        assert not watcher.is_alive()
        assert captured[-1]["type"] == "end"
        # no gaps, no duplicates: every seq from the first record to
        # the end sentinel arrived exactly once
        assert [r["seq"] for r in captured] == list(
            range(1, job.live.last_seq + 1)
        )


class TestSlowClients:
    def test_slow_subscriber_never_stalls_the_run(self, service):
        manager, base, _server = service
        database, backend = gated_database()
        job = manager.submit(database, equijoins=paper_equijoins())
        assert backend.entered.wait(timeout=30)
        # a watcher connects and then never reads: its socket buffers
        # fill and its handler thread blocks on the write, not the run
        request = urllib.request.Request(f"{base}/jobs/{job.id}/events")
        response = urllib.request.urlopen(request, timeout=10)
        try:
            for tick in range(5000):
                job.trace.progress("flood " + "x" * 200, current=tick)
            backend.release.set()
            assert manager.result(job.id, timeout=30) is not None
        finally:
            response.close()
        assert job.live.history()[-1]["type"] == "end"


class TestJobsWatch:
    def test_watch_of_a_finished_job_exits_zero(self, service, capsys):
        from repro.cli import main

        manager, base, _server = service
        job = submit_paper_job(manager)
        manager.result(job.id, timeout=30)
        assert main(["jobs", "watch", job.id, "--url", base]) == 0
        assert f"{job.id} finished: done" in capsys.readouterr().out
