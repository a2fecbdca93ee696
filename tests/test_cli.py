"""The command-line interface."""

import json

import pytest

from repro.cli import load_database, main

SCHEMA_SQL = """
CREATE TABLE city (cid INT PRIMARY KEY, cname VARCHAR(20));
CREATE TABLE person (pid INT PRIMARY KEY, pname VARCHAR(20),
                     home INT, home_name VARCHAR(20));
INSERT INTO city VALUES (1, 'Lyon'), (2, 'Paris'), (3, 'Nice');
INSERT INTO person VALUES
    (10, 'a', 1, 'Lyon'), (11, 'b', 1, 'Lyon'), (12, 'c', 2, 'Paris'),
    (13, 'd', 3, 'Nice'), (14, 'e', 1, 'Lyon'), (15, 'f', 2, 'Paris');
"""

PROGRAM_SQL = "SELECT pname FROM person, city WHERE home = cid;\n"


@pytest.fixture
def workspace(tmp_path):
    schema = tmp_path / "schema.sql"
    schema.write_text(SCHEMA_SQL)
    programs = tmp_path / "programs"
    programs.mkdir()
    (programs / "report.sql").write_text(PROGRAM_SQL)
    return tmp_path


@pytest.fixture
def sqlite_workspace(workspace):
    """The same workspace, with the database saved as a SQLite file."""
    from repro.storage.sqlite_io import save_sqlite

    db = load_database(str(workspace / "schema.sql"))
    save_sqlite(db, str(workspace / "legacy.db"))
    return workspace


class TestLoadDatabase:
    def test_sql_script(self, workspace):
        db = load_database(str(workspace / "schema.sql"))
        assert len(db.table("person")) == 6

    def test_json_document(self, workspace, tmp_path):
        from repro.storage.serialize import database_to_dict, save_json

        db = load_database(str(workspace / "schema.sql"))
        path = str(tmp_path / "db.json")
        save_json(database_to_dict(db), path)
        restored = load_database(path)
        assert len(restored.table("city")) == 3

    def test_sqlite_file_uses_pushdown_backend(self, sqlite_workspace):
        from repro.backends import SQLiteBackend

        db = load_database(str(sqlite_workspace / "legacy.db"))
        assert isinstance(db.backend, SQLiteBackend)
        assert len(db.table("person")) == 6
        # K comes from the data dictionary, not from any .sql declaration
        assert {k.relation for k in db.schema.key_set()} == {"city", "person"}
        db.close()

    def test_backend_memory_materializes_sqlite_input(self, sqlite_workspace):
        from repro.backends import MemoryBackend

        db = load_database(str(sqlite_workspace / "legacy.db"), backend="memory")
        assert isinstance(db.backend, MemoryBackend)
        assert db.count_distinct("person", ("home",)) == 3

    def test_backend_sqlite_lifts_sql_script(self, workspace):
        from repro.backends import SQLiteBackend

        db = load_database(str(workspace / "schema.sql"), backend="sqlite")
        assert isinstance(db.backend, SQLiteBackend)
        assert db.count_distinct("city", ("cid",)) == 3
        db.close()


class TestCommands:
    def test_inspect(self, workspace, capsys):
        code = main(["inspect", str(workspace / "schema.sql"), "--statistics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "city.{cid}" in out
        assert "Statistics" in out

    def test_extract(self, workspace, capsys):
        code = main(
            ["extract", str(workspace / "schema.sql"), str(workspace / "programs")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "city[cid] >< person[home]" in out
        assert "report.sql" in out

    def test_run_with_outputs(self, workspace, capsys):
        report = workspace / "session.md"
        dot = workspace / "eer.dot"
        deps = workspace / "deps.json"
        code = main(
            [
                "run",
                str(workspace / "schema.sql"),
                str(workspace / "programs"),
                "--report", str(report),
                "--dot", str(dot),
                "--dependencies", str(deps),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Restructured schema" in out
        assert "home -> home_name" in report.read_text()
        assert dot.read_text().startswith("graph")
        document = json.loads(deps.read_text())
        assert document["format"] == "repro/dependencies@1"
        assert document["functional"]

    def test_run_emits_migration_sql(self, workspace, capsys):
        sql_path = workspace / "migration.sql"
        code = main(
            [
                "run",
                str(workspace / "schema.sql"),
                str(workspace / "programs"),
                "--sql", str(sql_path),
                "--sql-data",
            ]
        )
        assert code == 0
        script = sql_path.read_text()
        assert "CREATE TABLE" in script
        assert "FOREIGN KEY" in script
        assert "INSERT INTO" in script

    def test_migration_script_loads_back(self, workspace, capsys):
        sql_path = workspace / "out.sql"
        code = main(
            [
                "run",
                str(workspace / "schema.sql"),
                str(workspace / "programs"),
                "--sql", str(sql_path),
                "--sql-data",
            ]
        )
        assert code == 0
        relations = sql_path.read_text().count("CREATE TABLE")
        capsys.readouterr()
        assert main(["inspect", str(sql_path)]) == 0
        out = capsys.readouterr().out
        listed = out.split("# Relations\n", 1)[1].split("\n\n", 1)[0].splitlines()
        assert len(listed) == relations == 3

    def test_inspect_sqlite_file(self, sqlite_workspace, capsys):
        code = main(["inspect", str(sqlite_workspace / "legacy.db")])
        assert code == 0
        out = capsys.readouterr().out
        assert "city.{cid}" in out            # K recovered from the dictionary
        assert "person.{pid}" in out

    def test_run_on_sqlite_file_matches_sql_script(self, sqlite_workspace, capsys):
        programs = str(sqlite_workspace / "programs")
        assert main(["run", str(sqlite_workspace / "schema.sql"), programs]) == 0
        from_script = capsys.readouterr().out
        assert main(["run", str(sqlite_workspace / "legacy.db"), programs]) == 0
        from_sqlite = capsys.readouterr().out

        def section(out, title):
            return out.split(title)[1]

        assert section(from_sqlite, "Restructured schema") == section(
            from_script, "Restructured schema"
        )

    def test_run_with_forced_memory_backend(self, sqlite_workspace, capsys):
        code = main(
            [
                "run",
                str(sqlite_workspace / "legacy.db"),
                str(sqlite_workspace / "programs"),
                "--backend", "memory",
            ]
        )
        assert code == 0
        assert "Restructured schema" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Ass-Dept" in out
        assert "Manager" in out

    def test_missing_file_is_an_error_not_a_traceback(self, capsys):
        code = main(["inspect", "/nonexistent/schema.sql"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_db_file_stays_a_one_line_cli_error(self, capsys):
        # sqlite3.connect would silently create a missing .db
        assert main(["inspect", "/nonexistent/x.db"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no such database file" in err
        assert "Traceback" not in err

    def test_extract_reports_skipped_statements(self, workspace, capsys):
        (workspace / "programs" / "broken.sql").write_text(
            "SELECT FROM WHERE;;"
        )
        code = main(
            ["extract", str(workspace / "schema.sql"), str(workspace / "programs")]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "skipped" in captured.err
        # the good program's join is still reported
        assert "city[cid] >< person[home]" in captured.out

    def test_bad_sql_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.sql"
        bad.write_text("CREATE GARBAGE;")
        code = main(["inspect", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        # a keyword is never a column type
        bad.write_text("CREATE TABLE t (a KEY);")
        assert main(["inspect", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "error: expected column type, found 'KEY' at line 1, column 19\n"
        )

    @pytest.mark.parametrize(
        "statement, kind",
        [
            ("SELECT a FROM t", "SELECT"),
            ("UPDATE t SET a = 2", "UPDATE"),
            ("DELETE FROM t", "DELETE"),
            ("DROP TABLE t", "DROP"),
        ],
    )
    def test_script_beyond_create_and_insert_is_a_one_line_error(
        self, tmp_path, capsys, statement, kind
    ):
        script = tmp_path / "db.sql"
        script.write_text(f"CREATE TABLE t (a INT); {statement};")
        assert main(["inspect", str(script)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: only CREATE TABLE and INSERT are loaded from a database "
            f"script; found {kind} (statement 2)\n"
        )

    def test_missing_programs_dir_is_an_error_not_a_traceback(
        self, workspace, capsys
    ):
        for command in ("extract", "run"):
            code = main(
                [command, str(workspace / "schema.sql"), str(workspace / "missing")]
            )
            assert code == 1
            err = capsys.readouterr().err
            assert "error:" in err
            assert "programs directory not found" in err


class TestObservabilityOutputs:
    def test_run_writes_trace_and_metrics(self, workspace, capsys):
        from repro.obs import METRICS_FORMAT, PHASE_NAMES, read_live_jsonl

        trace_path = workspace / "run.trace.jsonl"
        metrics_path = workspace / "run.metrics.json"
        code = main(
            [
                "run",
                str(workspace / "schema.sql"),
                str(workspace / "programs"),
                "--trace", str(trace_path),
                "--metrics", str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace_path}" in out
        assert f"metrics written to {metrics_path}" in out

        records = read_live_jsonl(str(trace_path))
        phase_names = [
            r["name"] for r in records
            if r.get("type") == "span-open" and r["kind"] == "phase"
        ]
        assert phase_names == list(PHASE_NAMES)
        assert any(r.get("type") == "primitive" for r in records)
        assert any(r.get("type") == "progress" for r in records)

        metrics = json.loads(metrics_path.read_text())
        assert metrics["format"] == METRICS_FORMAT
        assert set(metrics["phases"]) == set(PHASE_NAMES)
        assert metrics["totals"]["queries"] > 0
        # the metrics document is derived from the very same records
        from repro.obs import metrics_from_records

        assert metrics == metrics_from_records(records)

    def test_every_run_records_into_its_bus(self):
        from argparse import Namespace

        from repro.cli import _make_tracer

        for options in ({}, {"trace": "t.jsonl"}, {"metrics": "m.json"}):
            tracer = _make_tracer(Namespace(**{"trace": None, "metrics": None, **options}))
            assert tracer.live_bus.last_seq == 0

    def test_demo_accepts_observability_options(self, tmp_path, capsys):
        trace_path = tmp_path / "demo.trace.jsonl"
        assert main(["demo", "--trace", str(trace_path)]) == 0
        assert trace_path.exists()

    def test_trace_summarize_renders_the_span_tree(self, workspace, capsys):
        trace_path = workspace / "run.trace.jsonl"
        assert main(
            [
                "run",
                str(workspace / "schema.sql"),
                str(workspace / "programs"),
                "--trace", str(trace_path),
            ]
        ) == 0
        capsys.readouterr()

        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "- pipeline [pipeline]" in out
        assert "IND-Discovery [phase]" in out
        assert "# Primitives" in out

    def test_trace_summarize_rejects_a_non_trace_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"hello": "world"}\n')
        assert main(["trace", "summarize", str(bogus)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_summarize_rejects_an_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "summarize", str(empty)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_trace_summarize_rejects_a_truncated_file(self, workspace, capsys):
        trace_path = workspace / "run.trace.jsonl"
        assert main(["demo", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        lines = trace_path.read_text().splitlines()
        trace_path.write_text("\n".join(lines[:-1] + [lines[-1][:10]]))
        assert main(["trace", "summarize", str(trace_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "invalid JSON" in err
        assert "Traceback" not in err

    def test_trace_summarize_rejects_a_wrong_schema_file(self, tmp_path, capsys):
        other = tmp_path / "metrics-as-trace.jsonl"
        other.write_text('{"type": "provenance", "format": "repro/provenance@1"}\n')
        assert main(["trace", "summarize", str(other)]) == 1
        assert "repro/trace@1" in capsys.readouterr().err


class TestVersion:
    def test_version_flag_prints_the_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out


class TestProfileCommand:
    @pytest.fixture
    def demo_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "demo.trace.jsonl"
        assert main(["demo", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        return trace_path

    def test_profile_prints_hotspots_and_phase_breakdown(
        self, demo_trace, capsys
    ):
        assert main(["profile", str(demo_trace)]) == 0
        out = capsys.readouterr().out
        assert "# Hotspots" in out
        assert "self ms" in out
        assert "# Primitives by phase" in out
        assert "IND-Discovery" in out

    def test_profile_writes_flamegraph_exports(self, demo_trace, tmp_path, capsys):
        flame = tmp_path / "demo.collapsed"
        assert main(["profile", str(demo_trace), "--flame", str(flame)]) == 0
        for line in flame.read_text().splitlines():
            stack, value = line.rsplit(" ", 1)
            assert stack and int(value) >= 0
        assert any(
            line.startswith("pipeline;") for line in flame.read_text().splitlines()
        )

    def test_profile_rejects_a_metrics_file_with_one_line(
        self, tmp_path, capsys
    ):
        metrics_path = tmp_path / "demo.metrics.json"
        assert main(["demo", "--metrics", str(metrics_path)]) == 0
        capsys.readouterr()
        assert main(["profile", str(metrics_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "repro/metrics@1" in err
        assert "repro/trace@1" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_trace_summarize_rejects_a_metrics_file_with_one_line(
        self, tmp_path, capsys
    ):
        metrics_path = tmp_path / "demo.metrics.json"
        assert main(["demo", "--metrics", str(metrics_path)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(metrics_path)]) == 1
        err = capsys.readouterr().err
        assert "repro/metrics@1" in err
        assert len(err.strip().splitlines()) == 1

    def test_profile_rejects_a_missing_file(self, capsys):
        assert main(["profile", "/nonexistent/trace.jsonl"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_profile_memory_records_peaks_in_the_trace(
        self, tmp_path, capsys
    ):
        from repro.obs import read_live_jsonl

        trace_path = tmp_path / "demo.mem.trace.jsonl"
        assert main(
            ["demo", "--trace", str(trace_path), "--profile-memory"]
        ) == 0
        capsys.readouterr()
        spans = [
            r for r in read_live_jsonl(str(trace_path))
            if r.get("type") == "span-close" and r["kind"] == "phase"
        ]
        assert spans
        for span in spans:
            assert span["attributes"]["mem_peak_kb"] >= 0.0
            assert span["attributes"]["mem_current_kb"] >= 0.0


class TestProvenanceOutputs:
    def run_with_provenance(self, workspace):
        prov_path = workspace / "run.prov.jsonl"
        code = main(
            [
                "run",
                str(workspace / "schema.sql"),
                str(workspace / "programs"),
                "--provenance", str(prov_path),
            ]
        )
        return code, prov_path

    def test_run_writes_a_provenance_export(self, workspace, capsys):
        from repro.obs import read_provenance_jsonl

        code, prov_path = self.run_with_provenance(workspace)
        assert code == 0
        assert f"provenance written to {prov_path}" in capsys.readouterr().out
        records = read_provenance_jsonl(str(prov_path))
        kinds = {r["kind"] for r in records if r.get("type") == "node"}
        assert {"query", "equijoin", "classification", "ind"} <= kinds

    def test_run_writes_a_lineage_dot_graph(self, workspace, capsys):
        dot_path = workspace / "lineage.dot"
        code = main(
            [
                "run",
                str(workspace / "schema.sql"),
                str(workspace / "programs"),
                "--provenance-dot", str(dot_path),
            ]
        )
        assert code == 0
        assert dot_path.read_text().startswith("digraph provenance")

    def test_explain_walks_a_ric_back_to_query_and_decision(
        self, workspace, capsys
    ):
        from repro.obs import read_provenance_jsonl

        code, prov_path = self.run_with_provenance(workspace)
        assert code == 0
        capsys.readouterr()
        records = read_provenance_jsonl(str(prov_path))
        rics = [
            r for r in records
            if r.get("type") == "node" and r["kind"] == "ric"
        ]
        assert rics, "the workspace run must derive at least one RIC"
        chains = []
        for ric in rics:
            assert main(["explain", str(prov_path), ric["id"]]) == 0
            out = capsys.readouterr().out
            assert out.startswith("referential integrity constraint:")
            # every chain bottoms out at the query that motivated it
            assert "source query: report.sql, statement 0" in out
            assert "trace event #" in out
            chains.append(out)
        # the hidden-object constraint was blessed by the expert
        assert any("expert decision:" in chain for chain in chains)

    def test_explain_unknown_artifact_is_an_error(self, workspace, capsys):
        code, prov_path = self.run_with_provenance(workspace)
        assert code == 0
        capsys.readouterr()
        assert main(["explain", str(prov_path), "no-such-artifact"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_explain_rejects_a_non_provenance_file(self, workspace, capsys):
        trace_path = workspace / "t.jsonl"
        assert main(["demo", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["explain", str(trace_path), "anything"]) == 1
        assert "repro/provenance@1" in capsys.readouterr().err

    def test_report_combines_trace_and_provenance(self, workspace, capsys):
        trace_path = workspace / "t.jsonl"
        prov_path = workspace / "p.jsonl"
        html_path = workspace / "report.html"
        assert main(
            [
                "run",
                str(workspace / "schema.sql"),
                str(workspace / "programs"),
                "--trace", str(trace_path),
                "--provenance", str(prov_path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "report",
                "--trace", str(trace_path),
                "--provenance", str(prov_path),
                "--output", str(html_path),
            ]
        ) == 0
        assert f"audit report written to {html_path}" in capsys.readouterr().out
        document = html_path.read_text()
        assert document.startswith("<!DOCTYPE html>")
        assert "Expert dialogue" in document
        assert "Derivation chains" in document
        assert "IND-Discovery" in document

    def test_report_without_inputs_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "r.html"
        assert main(["report", "--output", str(out)]) == 1
        assert "provide --trace and/or --provenance" in capsys.readouterr().err
        assert not out.exists()


class TestJobsWatchExitCodes:
    """A watch that never sees a done sentinel must not exit 0."""

    def _watch(self, monkeypatch, records, extra=()):
        import repro.service.stream as stream_mod

        monkeypatch.setattr(
            stream_mod,
            "sse_events",
            lambda url, last_event_id=None, timeout=None: iter(records),
        )
        return main(["jobs", "watch", "job-1", *extra])

    def test_done_sentinel_exits_zero(self, monkeypatch):
        records = [
            {"type": "progress", "seq": 1, "message": "x"},
            {"type": "end", "seq": 2, "state": "done"},
        ]
        assert self._watch(monkeypatch, records) == 0

    def test_failed_sentinel_exits_nonzero(self, monkeypatch):
        records = [{"type": "end", "seq": 1, "state": "failed"}]
        assert self._watch(monkeypatch, records) == 1
        assert self._watch(monkeypatch, records, ("--json",)) == 1

    def test_truncated_stream_exits_nonzero(self, monkeypatch, capsys):
        # a server crash mid-run closes the stream with no sentinel at
        # all — that must be distinguishable from success in scripts
        records = [{"type": "progress", "seq": 1, "message": "x"}]
        assert self._watch(monkeypatch, records) == 1
        assert "without an end sentinel" in capsys.readouterr().err
        assert self._watch(monkeypatch, records, ("--json",)) == 1
