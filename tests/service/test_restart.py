"""Kill-and-restart durability: ``repro serve --archive`` survives SIGKILL."""

import json
import os
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.service.metrics import lint_exposition
from repro.service.stream import sse_events

pytestmark = pytest.mark.slow


REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def serve(*extra_args):
    """``repro serve`` as a real subprocess; returns (process, base URL)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--heartbeat", "0.2", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    assert "listening on" in line, line + process.stderr.read()
    return process, line.split()[4]


def kill(process):
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


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def wait_archived(base, job_id, seconds=60):
    """Poll the ledger until the run has been written through to disk."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        record = get_json(f"{base}/jobs/{job_id}")
        if record.get("archived") and record["state"] in ("done", "failed"):
            return record
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached the archive")


class TestKillAndRestart:
    def test_archive_survives_sigkill(self, tmp_path):
        archive_dir = str(tmp_path / "runs.archive")

        # first life: run a demo job to completion, confirm it is durable
        process, base = serve("--archive", archive_dir)
        second = None
        try:
            job = submit_demo(base)
            record = wait_archived(base, job["id"])
            assert record["state"] == "done"

            # the unclean exit: no drain, no shutdown hook
            process.kill()
            process.communicate(timeout=10)

            # second life: same archive directory, new process
            second, base2 = serve("--archive", archive_dir)

            # (a) the same spec is answered from the restored cache
            resubmit = submit_demo(base2)
            assert resubmit["cached"] is True
            assert resubmit["state"] == "done"
            assert resubmit["summary"] == record["summary"]

            # the pre-restart job is in the ledger with its original id
            restored = get_json(f"{base2}/jobs/{job['id']}")
            assert restored["state"] == "done"
            assert restored["archived"] is True
            assert restored["summary"] == record["summary"]

            # (b) its event stream replays from the archive, end included
            events = list(
                sse_events(f"{base2}/jobs/{job['id']}/events", timeout=30)
            )
            assert events, "archived replay produced no events"
            assert events[-1]["type"] == "end"
            assert events[-1]["state"] == "done"
            phases = {e.get("phase") for e in events if e.get("phase")}
            assert phases, "archived replay lost the phase boundaries"
            # Last-Event-ID resume still works against the archived stream
            tail = list(
                sse_events(
                    f"{base2}/jobs/{job['id']}/events",
                    last_event_id=events[-2]["seq"],
                    timeout=30,
                )
            )
            assert [e["seq"] for e in tail] == [events[-1]["seq"]]

            # (c) the restored instance's /metrics lints clean and counts
            # the restored run
            with urllib.request.urlopen(base2 + "/metrics", timeout=10) as response:
                exposition = response.read().decode("utf-8")
            assert lint_exposition(exposition) == []
            assert "repro_jobs_restored_total 1" in exposition
        finally:
            kill(process)
            if second is not None:
                kill(second)

    def test_restart_on_an_empty_archive_dir_is_clean(self, tmp_path):
        process, base = serve("--archive", str(tmp_path / "fresh.archive"))
        try:
            health = get_json(base + "/healthz")
            assert health["ok"] is True
            assert get_json(base + "/health")["jobs"] == 0
        finally:
            kill(process)
