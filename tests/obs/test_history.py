"""Cross-run analytics: archive trend tables and ``repro history``."""

import os

import pytest

from repro.cli import main
from repro.obs.archive import RunArchive
from repro.obs.history import archive_trends, render_archive_trends
from repro.obs.live import RunStats


def archived_run(archive, job_id, key, phase_ms, calls=10, hits=5):
    stats = RunStats()
    for phase, ms in phase_ms.items():
        stats.phase_runs[phase] = 1
        stats.phase_ms[phase] = ms
    stats.primitive_calls["count_distinct"] = calls
    stats.primitive_cache_hits["count_distinct"] = hits
    archive.store(
        {"type": "job", "id": job_id, "label": job_id, "state": "done"},
        key,
        stats=stats,
    )


class TestArchiveTrends:
    def test_groups_by_fingerprint_pair(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        archived_run(archive, "job-1", ("db1", "wl1", "a"), {"IND": 10.0})
        archived_run(archive, "job-2", ("db1", "wl1", "b"), {"IND": 12.0})
        archived_run(archive, "job-3", ("db2", "wl1", "a"), {"IND": 50.0})
        rows = archive_trends(archive)
        assert len(rows) == 2
        first = next(r for r in rows if r["database_fingerprint"] == "db1")
        assert first["runs"] == 2
        assert first["phase_ms"]["IND"] == 22.0
        assert first["cache_hit_rate"] == 0.5

    def test_a_group_lists_one_problem_under_distinct_configs(self, tmp_path):
        archive = RunArchive(str(tmp_path))
        walls = (10.0, 10.5, 60.0)
        for index, wall in enumerate(walls):
            archived_run(
                archive, f"job-{index}", ("db", "wl", str(index)),
                {"IND": wall},
            )
        # a re-run under a config already archived takes over its slot
        archived_run(archive, "job-9", ("db", "wl", "0"), {"IND": 11.0})
        (row,) = archive_trends(archive)
        assert row["runs"] == 3
        assert row["labels"] == ["job-9", "job-1", "job-2"]
        assert row["wall_ms"] == [11.0, 10.5, 60.0]
        assert "drift" not in row
        header = render_archive_trends(archive).splitlines()[1]
        assert header.split() == [
            "database", "workload", "runs", "labels", "slowest", "phase",
            "hit-rate",
        ]

    def test_empty_archive_renders(self, tmp_path):
        assert render_archive_trends(
            RunArchive(str(tmp_path))
        ) == "archive is empty\n"


class TestHistoryCommand:
    def test_without_an_archive_it_exits_2_with_one_error_line(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["history"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert errors == [
            "repro history: error: the following arguments are required: "
            "--archive"
        ]

    def test_the_bench_options_are_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["history", "--bench", "history.jsonl"])
        assert info.value.code == 2

    def test_a_missing_archive_is_one_error_line_and_creates_nothing(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "nope" / "archive")
        assert main(["history", "--archive", missing]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: no archive at {missing!r}"
        ]
        assert os.listdir(str(tmp_path)) == []

    def test_the_threshold_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["history", "--archive", str(tmp_path), "--threshold", "2"])
        assert info.value.code == 2
