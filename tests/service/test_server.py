"""The HTTP JSON API over the job manager (``repro serve``)."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service.export import JOBS_FORMAT
from repro.service.jobs import JobManager
from repro.service.server import build_server


@pytest.fixture
def api():
    manager = JobManager(runners=1)
    server = build_server(manager, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    base = f"http://{host}:{port}"

    def call(method, path, body=None):
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(base + path, method=method, data=data)
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            with error:
                return error.code, json.loads(error.read())

    call.manager = manager
    yield call
    server.shutdown()
    server.server_close()
    manager.shutdown()
    thread.join(timeout=5)


def wait_done(call, job_id, tries=300):
    import time

    for _ in range(tries):
        status, record = call("GET", f"/jobs/{job_id}")
        assert status == 200
        if record["state"] in ("done", "failed", "cancelled"):
            return record
        time.sleep(0.05)
    raise AssertionError(f"{job_id} never finished")


class TestRoutes:
    def test_health(self, api):
        status, body = api("GET", "/health")
        assert status == 200
        assert body["ok"] is True
        assert body["jobs"] == 0

    def test_submit_poll_result(self, api):
        status, record = api(
            "POST", "/jobs", {"demo": True, "config": {"translate": True}}
        )
        assert status == 201
        assert record["state"] in ("queued", "running", "done")
        final = wait_done(api, record["id"])
        assert final["state"] == "done"
        assert final["summary"]["ric"] > 0
        status, eer = api("GET", f"/jobs/{record['id']}/eer")
        assert status == 200
        assert "Person" in eer["eer"]

    def test_ledger_listing_matches_the_export_shape(self, api):
        _, record = api("POST", "/jobs", {"demo": True})
        wait_done(api, record["id"])
        status, records = api("GET", "/jobs")
        assert status == 200
        assert records[0]["format"] == JOBS_FORMAT
        assert records[0]["jobs"] == 1
        assert records[1]["id"] == record["id"]

    def test_cache_hit_over_http(self, api):
        _, first = api("POST", "/jobs", {"demo": True})
        wait_done(api, first["id"])
        status, second = api("POST", "/jobs", {"demo": True})
        assert status == 201
        assert second["cached"] is True
        assert second["state"] == "done"

    def test_cancel_finished_job_reports_false(self, api):
        _, record = api("POST", "/jobs", {"demo": True})
        wait_done(api, record["id"])
        status, body = api("DELETE", f"/jobs/{record['id']}")
        assert status == 200
        assert body["cancelled"] is False

    def test_eer_of_unfinished_job_is_a_conflict(self, api):
        # hold the single runner inside the first job's first expert
        # question, so the second job stays queued until released
        from repro.core.expert import ScriptedExpert
        from repro.workloads.paper_example import (
            build_paper_database,
            paper_expert_script,
            paper_program_corpus,
        )

        release, asked = threading.Event(), threading.Event()

        class HeldExpert(ScriptedExpert):
            def decide_nei(self, context):
                asked.set()
                release.wait(timeout=60)
                return super().decide_nei(context)

        first = api.manager.submit(
            build_paper_database(),
            corpus=paper_program_corpus(),
            config={"expert": HeldExpert(paper_expert_script())},
            label="held",
        )
        try:
            assert asked.wait(timeout=60)
            _, second = api("POST", "/jobs", {"demo": True, "label": "second"})
            assert second["state"] == "queued"
            status, body = api("GET", f"/jobs/{second['id']}/eer")
            assert status == 409
            assert "still" in body["error"]
        finally:
            release.set()
        wait_done(api, first.id)
        wait_done(api, second["id"])


class TestErrors:
    def test_unknown_route_404(self, api):
        assert api("GET", "/nope")[0] == 404
        assert api("POST", "/jobs/job-1")[0] == 404
        assert api("DELETE", "/jobs")[0] == 404

    def test_unknown_job_404(self, api):
        status, body = api("GET", "/jobs/job-42")
        assert status == 404
        assert "job-42" in body["error"]
        assert api("DELETE", "/jobs/job-42")[0] == 404

    def test_bad_spec_400(self, api):
        status, body = api("POST", "/jobs", {"nonsense": 1})
        assert status == 400
        assert "nonsense" in body["error"]
        status, body = api("POST", "/jobs", {})
        assert status == 400
        for config in (
            {"engnie": "batched"},
            {"engine": "batched"},
            {"engine": "process"},
            {"engine_workers": 2},
        ):
            status, body = api("POST", "/jobs", {"demo": True, "config": config})
            assert status == 400
            assert "\n" not in body["error"]
        assert api.manager.jobs() == []

    def test_paged_spec_400(self, api, tmp_path):
        schema = tmp_path / "schema.sql"
        schema.write_text("CREATE TABLE t (a INT);")
        spec = {"database": str(schema), "programs": str(tmp_path)}
        for extra, needle in (({"pool_pages": 8}, "pool_pages"),
                              ({"page_size": 256}, "page_size"),
                              ({"backend": "paged"}, "unknown backend: 'paged'")):
            status, body = api("POST", "/jobs", dict(spec, **extra))
            assert status == 400
            assert "\n" not in body["error"] and needle in body["error"]
        assert api.manager.jobs() == []

    def test_script_beyond_create_and_insert_400(self, api, tmp_path):
        schema = tmp_path / "schema.sql"
        schema.write_text("CREATE TABLE t (a INT); UPDATE t SET a = 2;")
        status, body = api(
            "POST", "/jobs", {"database": str(schema), "programs": str(tmp_path)}
        )
        assert status == 400
        assert body["error"].endswith("found UPDATE (statement 2)")
        assert "\n" not in body["error"]
        assert api.manager.jobs() == []

    def test_empty_body_400(self, api):
        status, _ = api("POST", "/jobs", None)  # empty body -> {} -> invalid spec
        assert status == 400

    def test_missing_database_file_400(self, api):
        status, body = api(
            "POST", "/jobs", {"database": "/nope/missing.json", "programs": "/nope"}
        )
        assert status == 400
