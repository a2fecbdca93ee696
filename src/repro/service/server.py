"""``repro serve``: the job manager behind a local HTTP JSON API.

Stdlib only (:class:`http.server.ThreadingHTTPServer`), so the service
runs anywhere the library does.  Routes:

- ``POST /jobs`` — submit a job spec (:mod:`repro.service.specs`
  document as the request body); answers ``201`` with the job record.
- ``GET /jobs`` — the full ledger, shaped exactly like the
  ``repro/jobs@1`` export (header record + one record per job).
- ``GET /jobs/<id>`` — one job's record (state, timings, summary).
- ``GET /jobs/<id>/eer`` — a finished job's rendered EER schema
  (``409`` while the job is still queued/running).
- ``GET /jobs/<id>/events`` — the job's live ``repro/live@1`` stream as
  Server-Sent Events: retained history then tail by default,
  ``Last-Event-ID`` resumes after a reconnect, idle streams carry
  heartbeat comments, and the ``end`` sentinel closes the stream
  cleanly.  Backlog and tail are one loop: page the bus history past
  the last ``seq`` written, then wait on the bus for the next record,
  so a stream of any length arrives complete and in order.
- ``DELETE /jobs/<id>`` — cancel; answers whether it took effect.
- ``GET /metrics`` — a Prometheus-style text exposition aggregated
  from the same live streams (:mod:`repro.service.metrics`).
- ``GET /health`` — liveness + job counts (the original combined
  probe); ``GET /healthz`` (liveness) and ``GET /readyz`` (readiness —
  503 once shutdown begins) split it for orchestrators.

Errors are JSON too: ``{"error": ...}`` with a 4xx status.  The server
binds localhost by default — it is a workstation/CI service, not an
internet-facing one.

``serve`` installs SIGINT/SIGTERM handlers for a graceful exit: new
work is refused (``/readyz`` flips 503), queued jobs are cancelled,
every connected SSE watcher is drained with an ``end`` sentinel, and
the process leaves with status 0.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro import __version__
from repro.exceptions import UnknownJobError
from repro.obs.log import get_logger
from repro.service.export import jobs_to_records
from repro.service.jobs import Job, JobManager
from repro.service.metrics import METRICS_CONTENT_TYPE, render_metrics
from repro.service.stream import (
    DEFAULT_HEARTBEAT,
    SSE_CONTENT_TYPE,
    format_comment,
    format_event,
)

__all__ = ["build_server", "serve"]

log = get_logger("server")

#: how long ``serve`` waits for connected SSE streams to drain at exit
_DRAIN_TIMEOUT = 5.0

#: the wait slice inside the SSE loop: short enough to notice shutdown
#: promptly, long enough to stay idle-cheap
_STREAM_TICK = 0.25


class _JobsHandler(BaseHTTPRequestHandler):
    """One request; the manager hangs off the server object."""

    server_version = "repro-serve/1"

    # -- plumbing ------------------------------------------------------
    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _reply(self, status: int, document: Any) -> None:
        body = json.dumps(document, sort_keys=True, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _route(self) -> Tuple[str, Optional[str], Optional[str]]:
        """Split ``/jobs/<id>/<view>`` into its three parts."""
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        head = parts[0] if parts else ""
        job_id = parts[1] if len(parts) > 1 else None
        view = parts[2] if len(parts) > 2 else None
        return head, job_id, view

    # -- verbs ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server's contract
        head, job_id, view = self._route()
        if head == "health":
            jobs = self.manager.jobs()
            return self._reply(
                200,
                {
                    "ok": True,
                    "jobs": len(jobs),
                    "running": sum(1 for j in jobs if j.state == "running"),
                    "queued": sum(1 for j in jobs if j.state == "queued"),
                },
            )
        if head == "healthz":
            return self._reply(200, {"ok": True, **self._identity()})
        if head == "readyz":
            if self.server.stopping.is_set():  # type: ignore[attr-defined]
                return self._reply(
                    503,
                    {"ready": False, "reason": "shutting down",
                     **self._identity()},
                )
            return self._reply(200, {"ready": True, **self._identity()})
        if head == "metrics":
            return self._metrics()
        if head != "jobs":
            return self._error(404, f"no such route: {self.path}")
        if job_id is None:
            return self._reply(200, jobs_to_records(self.manager))
        try:
            job = self.manager.job(job_id)
        except UnknownJobError as exc:
            return self._error(404, str(exc))
        if view is None:
            return self._reply(200, job.as_record())
        if view == "eer":
            if not job.finished:
                return self._error(409, f"{job_id} is still {job.state}")
            eer_text = job.eer_text  # a restored job's archived rendering
            if job.result is not None and job.result.eer is not None:
                from repro.eer.render import render_text

                eer_text = render_text(job.result.eer)
            if job.state != "done" or eer_text is None:
                return self._error(409, f"{job_id} finished {job.state} without an EER schema")
            return self._reply(200, {"id": job_id, "eer": eer_text})
        if view == "events":
            return self._stream_events(job)
        return self._error(404, f"no such job view: {view}")

    def _identity(self) -> Dict[str, Any]:
        """Version + uptime: who this instance is, for probes."""
        started = getattr(self.server, "started", None)
        uptime = round(time.time() - started, 3) if started else 0.0
        return {"version": __version__, "uptime_seconds": uptime}

    def _metrics(self) -> None:
        text = render_metrics(
            self.manager,
            streams_active=self.server.active_streams,  # type: ignore[attr-defined]
            started=getattr(self.server, "started", None),
        )
        self._reply_text(text)

    def _reply_text(self, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", METRICS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- the SSE stream ------------------------------------------------
    def _stream_events(self, job: Job) -> None:
        """Serve one job's live stream until its end sentinel (or drain)."""
        raw_resume = self.headers.get("Last-Event-ID")
        try:
            cursor = int(raw_resume) if raw_resume is not None else 0
        except ValueError:
            return self._error(400, f"Last-Event-ID must be an integer, got {raw_resume!r}")
        self.send_response(200)
        self.send_header("Content-Type", SSE_CONTENT_TYPE)
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()

        bus = job.live
        if bus is None:
            # a restored job's stream lives in the archive: replay it
            # from disk (honouring Last-Event-ID) and make sure an end
            # sentinel closes the stream even if the capture lacks one
            replay = self.manager.replay_records(job)
            if replay:
                last_seq = 0
                ended = False
                for record in replay:
                    seq = record.get("seq", 0) or 0
                    last_seq = max(last_seq, seq)
                    if seq <= cursor:
                        continue
                    if not self._write_frame(format_event(record)):
                        return
                    if record.get("type") == "end":
                        ended = True
                if not ended:
                    self._write_frame(format_event({
                        "type": "end", "seq": last_seq + 1, "ts_ms": 0.0,
                        "job": job.id, "state": job.state, "archived": True,
                    }))
                return
            # a cache-hit job never ran: there is no stream, only the end
            self._write_frame(format_event({
                "type": "end", "seq": 0, "ts_ms": 0.0,
                "job": job.id, "state": job.state, "cached": job.cached,
            }))
            return

        stopping = self.server.stopping  # type: ignore[attr-defined]
        heartbeat = self.server.heartbeat  # type: ignore[attr-defined]
        self.server.stream_opened()  # type: ignore[attr-defined]
        try:
            # the cursor is the seq of the last record written: page the
            # bus history past it, and wait on the bus when it is empty
            last_write = time.monotonic()
            while True:
                for record in bus.history(since=cursor):
                    if not self._write_frame(format_event(record)):
                        return
                    cursor = record["seq"]
                    last_write = time.monotonic()
                    if record.get("type") == "end":
                        return
                if stopping.is_set():
                    # the graceful-shutdown drain: tell the watcher the
                    # stream is over even though the job may not be
                    self._write_frame(format_event({
                        "type": "end", "seq": bus.last_seq, "ts_ms": 0.0,
                        "job": job.id, "state": job.state,
                        "reason": "server shutting down",
                    }))
                    return
                if bus.wait(cursor, min(heartbeat, _STREAM_TICK)):
                    continue
                if time.monotonic() - last_write >= heartbeat:
                    if not self._write_frame(format_comment()):
                        return
                    last_write = time.monotonic()
        finally:
            self.server.stream_closed()  # type: ignore[attr-defined]

    def _write_frame(self, frame: bytes) -> bool:
        """One SSE frame to the client; False when the client is gone."""
        try:
            self.wfile.write(frame)
            self.wfile.flush()
            return True
        except (BrokenPipeError, ConnectionResetError, OSError):
            return False

    def do_POST(self) -> None:  # noqa: N802
        head, job_id, _view = self._route()
        if head != "jobs" or job_id is not None:
            return self._error(404, f"no such route: {self.path}")
        length = int(self.headers.get("Content-Length") or 0)
        try:
            spec = json.loads(self.rfile.read(length).decode("utf-8") or "{}")
        except json.JSONDecodeError as exc:
            return self._error(400, f"request body is not JSON: {exc.msg}")
        from repro.service.specs import submit_spec

        try:
            job = submit_spec(self.manager, spec)
        except (ValueError, OSError) as exc:
            return self._error(400, str(exc))
        except Exception as exc:  # a bad database/corpus must not kill the server
            return self._error(400, f"{type(exc).__name__}: {exc}")
        self._reply(201, job.as_record())

    def do_DELETE(self) -> None:  # noqa: N802
        head, job_id, view = self._route()
        if head != "jobs" or job_id is None or view is not None:
            return self._error(404, f"no such route: {self.path}")
        try:
            cancelled = self.manager.cancel(job_id)
        except UnknownJobError as exc:
            return self._error(404, str(exc))
        self._reply(200, {"id": job_id, "cancelled": cancelled})


class _ServiceServer(ThreadingHTTPServer):
    """The HTTP server plus the service's shared shutdown/stream state."""

    daemon_threads = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: set once shutdown begins; SSE loops drain, ``/readyz`` flips 503
        self.stopping = threading.Event()
        self.heartbeat = DEFAULT_HEARTBEAT
        self.started = time.time()
        self._streams_lock = threading.Lock()
        self.active_streams = 0

    def stream_opened(self) -> None:
        with self._streams_lock:
            self.active_streams += 1

    def stream_closed(self) -> None:
        with self._streams_lock:
            self.active_streams -= 1


def build_server(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    heartbeat: float = DEFAULT_HEARTBEAT,
) -> _ServiceServer:
    """A ready-to-serve HTTP server bound to *manager* (port 0 = ephemeral).

    *heartbeat* is the idle-stream comment cadence in seconds (the SSE
    tests shrink it to assert cadence without waiting).
    """
    server = _ServiceServer((host, port), _JobsHandler)
    server.manager = manager  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.heartbeat = heartbeat
    return server


def serve(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 8750,
    verbose: bool = True,
    heartbeat: float = DEFAULT_HEARTBEAT,
) -> None:
    """Serve until interrupted (the ``repro serve`` loop).

    SIGINT and SIGTERM both trigger the graceful path: the readiness
    probe flips, queued jobs are cancelled, connected SSE watchers get
    the end sentinel, and the function returns normally (exit 0).
    """
    server = build_server(manager, host=host, port=port, verbose=verbose, heartbeat=heartbeat)
    address = f"http://{server.server_address[0]}:{server.server_address[1]}"
    print(f"repro service listening on {address} (Ctrl-C to stop)", flush=True)
    log.info("service listening", extra={"data": {"address": address}})

    def _begin_shutdown(signum: int, _frame: Any) -> None:
        if server.stopping.is_set():
            return
        server.stopping.set()
        log.info("shutdown signal", extra={"data": {"signal": signum}})
        # serve_forever runs on this thread: shutdown() must be called
        # from another one or it deadlocks waiting for the loop to stop
        threading.Thread(target=server.shutdown, daemon=True).start()

    installed = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            installed.append((signum, signal.signal(signum, _begin_shutdown)))
        except ValueError:  # not the main thread (embedded use): skip
            pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # handlers not installed: fall through
        server.stopping.set()
    finally:
        server.stopping.set()
        print("shutting down", flush=True)
        # cancel queued jobs first (their end sentinels reach watchers),
        # then give connected streams a bounded window to drain
        manager.shutdown()
        deadline = time.monotonic() + _DRAIN_TIMEOUT
        while server.active_streams > 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        server.server_close()
        for signum, previous in installed:
            try:
                signal.signal(signum, previous)
            except ValueError:
                pass
        log.info("service stopped")
