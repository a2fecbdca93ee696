"""Unit tests for the CI benchmark-regression gate's compare logic."""

from __future__ import annotations

import pytest

regression = pytest.importorskip("benchmarks.regression")


def head(queries=None, latency_units=None):
    return {
        "queries": queries or {},
        "latency_units": latency_units or {},
    }


def run_doc(**heads):
    return {"format": regression.FORMAT, "mode": "quick", "heads": heads}


class TestQueryGate:
    def test_within_the_ratio_passes(self):
        baseline = run_doc(s1=head(queries={"count_distinct": 10}))
        current = run_doc(s1=head(queries={"count_distinct": 19}))
        assert regression.compare(current, baseline) == []

    def test_beyond_the_ratio_fails(self):
        baseline = run_doc(s1=head(queries={"count_distinct": 10}))
        current = run_doc(s1=head(queries={"count_distinct": 21}))
        violations = regression.compare(current, baseline)
        assert len(violations) == 1
        assert "count_distinct" in violations[0]
        assert "21" in violations[0]

    def test_max_ratio_is_configurable(self):
        baseline = run_doc(s1=head(queries={"fd_holds": 10}))
        current = run_doc(s1=head(queries={"fd_holds": 12}))
        assert regression.compare(current, baseline, max_ratio=1.1)

    def test_zero_baseline_counts_are_not_gated(self):
        baseline = run_doc(s1=head(queries={"join_count": 0}))
        current = run_doc(s1=head(queries={"join_count": 50}))
        assert regression.compare(current, baseline) == []


class TestLatencyGate:
    def test_below_the_noise_floor_is_not_gated(self):
        floor = regression.LATENCY_FLOOR_UNITS
        baseline = run_doc(s1=head(latency_units={"fd_holds": floor / 2}))
        current = run_doc(s1=head(latency_units={"fd_holds": 100.0}))
        assert regression.compare(current, baseline) == []

    def test_above_the_floor_a_regression_fails(self):
        baseline = run_doc(s1=head(latency_units={"fd_holds": 0.5}))
        current = run_doc(s1=head(latency_units={"fd_holds": 1.5}))
        violations = regression.compare(current, baseline)
        assert len(violations) == 1
        assert "latency" in violations[0]

    def test_above_the_floor_within_ratio_passes(self):
        baseline = run_doc(s1=head(latency_units={"fd_holds": 0.5}))
        current = run_doc(s1=head(latency_units={"fd_holds": 0.9}))
        assert regression.compare(current, baseline) == []


class TestUnguardedHeads:
    def test_current_only_heads_are_reported_sorted(self):
        baseline = run_doc(s1=head())
        current = run_doc(s1=head(), s11=head(), s2=head())
        assert regression.unguarded_heads(current, baseline) == ["s11", "s2"]

    def test_matching_head_sets_are_clean(self):
        doc = run_doc(s1=head(), s3=head())
        assert regression.unguarded_heads(doc, doc) == []

    def test_exit_code_is_distinct_from_a_regression(self):
        assert regression.EXIT_UNGUARDED_HEADS == 3

    def test_main_exits_3_on_a_new_head(self, tmp_path, monkeypatch, capsys):
        path = str(tmp_path / "baseline.json")
        regression.write_baseline(
            path, run_doc(s1=head(queries={"count_distinct": 5}))
        )
        current = run_doc(
            s1=head(queries={"count_distinct": 5}),
            s11=head(queries={"count_distinct": 5}),
        )
        current["calibration_ms"] = 1.0
        current["heads"]["s1"]["wall_ms"] = 1.0
        current["heads"]["s1"]["cache_hits"] = 0
        current["heads"]["s11"]["wall_ms"] = 1.0
        current["heads"]["s11"]["cache_hits"] = 0
        monkeypatch.setattr(regression, "run_all", lambda quick: current)
        code = regression.main(["--baseline", path])
        assert code == regression.EXIT_UNGUARDED_HEADS
        out = capsys.readouterr().out
        assert "s11" in out
        assert "--write-baseline" in out

    def test_main_prefers_the_regression_exit(self, tmp_path, monkeypatch):
        # a regression and a new head together: perf failure wins
        path = str(tmp_path / "baseline.json")
        regression.write_baseline(
            path, run_doc(s1=head(queries={"count_distinct": 5}))
        )
        current = run_doc(
            s1=head(queries={"count_distinct": 500}), s11=head()
        )
        current["calibration_ms"] = 1.0
        for name in ("s1", "s11"):
            current["heads"][name]["wall_ms"] = 1.0
            current["heads"][name]["cache_hits"] = 0
        monkeypatch.setattr(regression, "run_all", lambda quick: current)
        assert regression.main(["--baseline", path]) == 1


class TestShape:
    def test_missing_head_is_a_violation(self):
        baseline = run_doc(s1=head(queries={"count_distinct": 1}))
        current = run_doc()
        violations = regression.compare(current, baseline)
        assert violations == ["s1: head missing from this run"]

    def test_empty_baseline_gates_nothing(self):
        assert regression.compare(run_doc(s1=head()), run_doc()) == []

    def test_baseline_round_trip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        result = run_doc(s1=head(queries={"count_distinct": 3}))
        regression.write_baseline(path, result)
        loaded = regression.load_baseline(path, "quick")
        assert loaded == result
        assert regression.load_baseline(path, "full") is None

    def test_load_baseline_rejects_other_formats(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something/else@1"}')
        with pytest.raises(SystemExit):
            regression.load_baseline(str(path), "quick")

    def test_missing_baseline_file_is_none(self, tmp_path):
        assert regression.load_baseline(str(tmp_path / "nope.json"), "quick") is None
