"""Graceful shutdown of ``repro serve``: signals, drain, exit 0."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.stream import sse_events

pytestmark = pytest.mark.slow


REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


@pytest.fixture
def served():
    """``repro serve`` as a real subprocess; yields (process, base URL)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--heartbeat", "0.2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    assert "listening on" in line, line
    base = line.split()[4]
    yield process, base
    if process.poll() is None:
        process.kill()
        process.communicate(timeout=10)


def submit_demo(base):
    request = urllib.request.Request(
        base + "/jobs",
        data=json.dumps({"demo": True}).encode("utf-8"),
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


class TestSignals:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_exits_zero(self, served, signum):
        process, base = served
        submit_demo(base)
        process.send_signal(signum)
        out, err = process.communicate(timeout=20)
        assert process.returncode == 0, err
        assert "shutting down" in out

    def test_readyz_flips_before_exit(self, served):
        process, base = served
        with urllib.request.urlopen(base + "/readyz", timeout=5) as response:
            assert response.status == 200
        process.send_signal(signal.SIGTERM)
        process.communicate(timeout=20)
        assert process.returncode == 0

    def test_sse_watcher_is_drained_with_an_end_sentinel(self, served):
        process, base = served
        job = submit_demo(base)
        # wait until the job finished, then watch a *second* submission's
        # twin... simpler: watch the finished job but pretend to resume
        # past its end so the stream idles on heartbeats
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with urllib.request.urlopen(f"{base}/jobs/{job['id']}", timeout=5) as got:
                record = json.loads(got.read())
            if record["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.05)
        captured = []

        def watch():
            captured.extend(
                sse_events(
                    f"{base}/jobs/{job['id']}/events",
                    last_event_id=10_000,  # past the end: pure tail mode
                    timeout=30,
                )
            )

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        time.sleep(0.5)  # let the stream connect and idle
        process.send_signal(signal.SIGTERM)
        watcher.join(timeout=20)
        assert not watcher.is_alive()
        out, _err = process.communicate(timeout=20)
        assert process.returncode == 0
        assert captured, "the drained watcher never saw a record"
        assert captured[-1]["type"] == "end"
        assert captured[-1].get("reason") == "server shutting down"


@pytest.fixture
def served_evicting():
    """A server whose ledger keeps at most one finished job."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--heartbeat", "0.2", "--keep-finished", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    assert "listening on" in line, line
    yield process, line.split()[4]
    if process.poll() is None:
        process.kill()
        process.communicate(timeout=10)


def submit_spec_json(base, spec):
    request = urllib.request.Request(
        base + "/jobs",
        data=json.dumps(spec).encode("utf-8"),
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def wait_state(base, job_id, seconds=30):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        with urllib.request.urlopen(f"{base}/jobs/{job_id}", timeout=5) as got:
            record = json.loads(got.read())
        if record["state"] in ("done", "failed", "cancelled"):
            return record
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


def wait_streams_active(base, seconds=30):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        with urllib.request.urlopen(base + "/metrics", timeout=5) as got:
            exposition = got.read().decode("utf-8")
        for sample in exposition.splitlines():
            if sample.startswith("repro_sse_streams_active "):
                if int(sample.split()[1]) >= 1:
                    return
        time.sleep(0.05)
    raise AssertionError("the watcher never showed up in /metrics")


class TestEvictedWatchers:
    def test_watcher_on_an_evicted_job_still_gets_the_end_sentinel(
        self, served_evicting
    ):
        process, base = served_evicting
        # deterministic, no timing: with --keep-finished 1 the target
        # stays in the ledger until a *later* job finishes, so the
        # watcher attaches to a finished-but-retained job, and only
        # then is the eviction triggered underneath it
        job = submit_spec_json(base, {"demo": True})
        wait_state(base, job["id"])
        captured = []

        def watch():
            captured.extend(
                sse_events(
                    f"{base}/jobs/{job['id']}/events",
                    last_event_id=10_000,  # past the end: pure tail mode
                    timeout=30,
                )
            )

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        wait_streams_active(base)  # attached, idling on heartbeats
        # a distinct fresh job (another config, another cache key)
        # finishes -> the target is evicted
        evictor = submit_spec_json(
            base, {"demo": True, "config": {"translate": False}}
        )
        wait_state(base, evictor["id"])
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                urllib.request.urlopen(f"{base}/jobs/{job['id']}", timeout=5).close()
            except urllib.error.HTTPError as error:
                error.close()
                assert error.code == 404
                break  # evicted — and the watcher is still attached
            time.sleep(0.05)
        else:
            raise AssertionError("the job was never evicted")
        assert watcher.is_alive(), "the watcher died with the ledger entry"
        process.send_signal(signal.SIGTERM)
        watcher.join(timeout=20)
        assert not watcher.is_alive()
        _out, err = process.communicate(timeout=20)
        assert process.returncode == 0, err
        assert captured, "the evicted job's watcher was never drained"
        assert captured[-1]["type"] == "end"
        assert captured[-1].get("reason") == "server shutting down"
