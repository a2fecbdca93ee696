"""Regression-gate attribution tests.

The forced-regression test doctors a baseline, monkeypatches the
harness's ``run_all`` (no real heads run), and asserts the gate exits
1 and prints the attribution table for the failing head.
"""

from __future__ import annotations

import os

import pytest

regression = pytest.importorskip("benchmarks.regression")


def head(**overrides):
    base = {
        "wall_ms": 10.0,
        "queries": {"count_distinct": 10, "fd_holds": 20},
        "latency_ms": {"count_distinct": 1.0, "fd_holds": 2.0},
        "latency_units": {"count_distinct": 0.5, "fd_holds": 1.0},
        "primitives": {
            "count_distinct": {
                "calls": 10, "duration_ms": 1.0, "cache_hits": 8,
                "cache_misses": 2, "rows_touched": 100, "hit_rate": 0.8,
            },
            "fd_holds": {
                "calls": 20, "duration_ms": 2.0, "cache_hits": 0,
                "cache_misses": 20, "rows_touched": 400, "hit_rate": 0.0,
            },
        },
        "cache_hits": 8,
        "rows_touched": 500,
        "decisions": 3,
        "phases": {
            "IND-Discovery": {"duration_ms": 4.0, "queries": 10, "self_ms": 3.0},
            "RHS-Discovery": {"duration_ms": 6.0, "queries": 20, "self_ms": 5.0},
        },
    }
    base.update(overrides)
    return base


def run_doc(**heads):
    return {
        "format": regression.FORMAT,
        "mode": "quick",
        "calibration_ms": 2.0,
        "heads": heads,
    }


class TestAttributionReport:
    def test_names_primitive_and_phase_movements(self):
        baseline = head()
        current = head(
            latency_units={"count_distinct": 2.0, "fd_holds": 1.0},
            primitives={
                "count_distinct": {
                    "calls": 10, "duration_ms": 4.0, "cache_hits": 0,
                    "cache_misses": 10, "rows_touched": 900, "hit_rate": 0.0,
                },
                "fd_holds": baseline["primitives"]["fd_holds"],
            },
        )
        text = regression.attribution_report("s1-head", current, baseline)
        assert "attribution for s1-head" in text
        lines = text.splitlines()
        # ranked by latency-unit delta: count_distinct (x4) first
        first_primitive = next(
            line for line in lines if line.startswith(("count_distinct", "fd_holds"))
        )
        assert first_primitive.startswith("count_distinct")
        assert "0.500 -> 2.000 (4.00x)" in text
        assert "80% -> 0%" in text            # the cache-hit-rate explanation
        assert "100 -> 900" in text           # rows scanned
        assert "IND-Discovery" in text and "self ms" in text

    def test_tolerates_heads_without_primitive_stats(self):
        # baselines recorded before this layer existed lack "primitives"
        bare = {"queries": {"fd_holds": 5}, "latency_units": {"fd_holds": 0.2}}
        text = regression.attribution_report("s1", head(), bare)
        assert "fd_holds" in text


class TestForcedRegression:
    """The acceptance scenario: the gate fails and attributes."""

    def force(self, tmp_path, monkeypatch, capsys, current, baseline_head):
        baseline_path = str(tmp_path / "baseline.json")
        regression.write_baseline(baseline_path, run_doc(**{"s3-head": baseline_head}))
        monkeypatch.setattr(regression, "run_all", lambda quick: current)
        code = regression.main(["--quick", "--baseline", baseline_path])
        return code, capsys.readouterr()

    def test_gate_failure_prints_attribution(
        self, tmp_path, monkeypatch, capsys
    ):
        regressed = head(
            queries={"count_distinct": 50, "fd_holds": 20},  # 5x chattier
            primitives=dict(
                head()["primitives"],
                count_distinct={
                    "calls": 50, "duration_ms": 9.0, "cache_hits": 0,
                    "cache_misses": 50, "rows_touched": 4500, "hit_rate": 0.0,
                },
            ),
        )
        code, captured = self.force(
            tmp_path, monkeypatch, capsys,
            current=run_doc(**{"s3-head": regressed}),
            baseline_head=head(),
        )
        assert code == 1
        assert "REGRESSION GATE FAILED" in captured.out
        assert "s3-head: count_distinct issued 50 queries (baseline 10)" \
            in captured.out
        assert "attribution for s3-head" in captured.out
        assert "10 -> 50" in captured.out          # the query blow-up, named
        assert "80% -> 0%" in captured.out         # the cache explanation

    def test_passing_gate_prints_no_attribution(
        self, tmp_path, monkeypatch, capsys
    ):
        code, captured = self.force(
            tmp_path, monkeypatch, capsys,
            current=run_doc(**{"s3-head": head()}),
            baseline_head=head(),
        )
        assert code == 0
        assert "regression gate passed" in captured.out
        assert "attribution" not in captured.out

    def test_a_gate_run_writes_no_file(self, tmp_path, monkeypatch, capsys):
        """Without ``--output`` a gate run writes nothing, so a local
        check leaves the tree clean."""
        baseline_path = str(tmp_path / "baseline.json")
        regression.write_baseline(baseline_path, run_doc(**{"s3-head": head()}))
        monkeypatch.setattr(
            regression, "run_all", lambda quick: run_doc(**{"s3-head": head()})
        )
        monkeypatch.chdir(tmp_path)
        assert regression.main(["--quick", "--baseline", baseline_path]) == 0
        assert sorted(os.listdir(tmp_path)) == ["baseline.json"]

    def test_the_no_history_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            regression.main(["--quick", "--no-history"])
        assert info.value.code == 2
        assert "--no-history" in capsys.readouterr().err

    def test_the_history_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            regression.main(["--quick", "--history", str(tmp_path / "h.jsonl")])
        assert info.value.code == 2
        assert "--history" in capsys.readouterr().err
        assert not (tmp_path / "h.jsonl").exists()
