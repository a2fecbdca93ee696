"""Unit tests for the CI benchmark-regression gate's compare logic."""

from __future__ import annotations

import pytest

regression = pytest.importorskip("benchmarks.regression")

S3 = "s3-end-to-end-head"
ALL = "s3-all-features-head"
SQLITE = "s6-sqlite-head"


def head(queries=None, latency_units=None, decisions=None, features=None):
    figures = {
        "queries": queries or {},
        "latency_units": latency_units or {},
    }
    if decisions is not None:
        figures["decisions"] = decisions
    if features is not None:
        figures["features"] = features
    return figures


def run_doc(**heads):
    return {"format": regression.FORMAT, "mode": "quick", "heads": heads}


def features(**overrides):
    figures = {
        "certificates": 2, "certificates_verified": 2,
        "live_last_seq": 83, "live_retained": 83, "live_trimmed": 0,
        "live_primitives": 34,
        "profile_queries_seen": 34,
        "provenance_nodes": 82, "provenance_edges": 86,
        "runs_restored": 1,
    }
    figures.update(overrides)
    return figures


QUERIES = {"count_distinct": 8, "fd_holds": 22, "join_count": 4}


def s3_run(**all_features_overrides):
    """The three s3-scenario heads, agreeing as a healthy run does."""
    return {
        S3: head(queries=dict(QUERIES), decisions=26),
        SQLITE: head(queries=dict(QUERIES), decisions=26),
        ALL: head(queries=dict(QUERIES), decisions=26,
                  features=features(**all_features_overrides)),
    }


class TestQueryGate:
    """Query counts and decisions are deterministic: gated exactly."""

    def test_equal_counts_pass(self):
        doc = run_doc(s1=head(queries={"count_distinct": 10}, decisions=3))
        assert regression.compare(doc, doc) == []

    def test_beyond_the_ratio_fails(self):
        baseline = run_doc(s1=head(queries={"count_distinct": 10}))
        current = run_doc(s1=head(queries={"count_distinct": 21}))
        violations = regression.compare(current, baseline)
        assert len(violations) == 1
        assert "count_distinct" in violations[0]
        assert "21" in violations[0]

    @pytest.mark.parametrize("calls", [9, 11])
    def test_any_difference_fails(self, calls):
        baseline = run_doc(s1=head(queries={"count_distinct": 10}))
        current = run_doc(s1=head(queries={"count_distinct": calls}))
        assert regression.compare(current, baseline) == [
            f"s1: count_distinct issued {calls} queries (baseline 10)"
        ]

    def test_a_count_below_the_baseline_fails(self):
        baseline = run_doc(s1=head(queries={"fd_holds": 22, "join_count": 4}))
        current = run_doc(s1=head(queries={"fd_holds": 22}))
        assert regression.compare(current, baseline) == [
            "s1: join_count issued 0 queries (baseline 4)"
        ]

    def test_a_primitive_the_baseline_never_asked_fails(self):
        baseline = run_doc(s1=head(queries={"join_count": 0}))
        current = run_doc(s1=head(queries={"join_count": 50, "fd_holds": 1}))
        violations = regression.compare(current, baseline)
        assert len(violations) == 2
        assert all(v.startswith("s1: ") for v in violations)

    def test_max_ratio_does_not_loosen_the_query_rule(self):
        baseline = run_doc(s1=head(queries={"fd_holds": 10}))
        current = run_doc(s1=head(queries={"fd_holds": 12}))
        assert regression.compare(current, baseline, max_ratio=100.0)

    def test_max_ratio_is_configurable(self):
        """The ratio bounds latency only."""
        baseline = run_doc(s1=head(latency_units={"fd_holds": 0.5}))
        current = run_doc(s1=head(latency_units={"fd_holds": 0.6}))
        assert regression.compare(current, baseline) == []
        assert regression.compare(current, baseline, max_ratio=1.1)

    @pytest.mark.parametrize("decisions", [25, 27])
    def test_a_decisions_mismatch_fails(self, decisions):
        baseline = run_doc(s1=head(queries=dict(QUERIES), decisions=26))
        current = run_doc(s1=head(queries=dict(QUERIES), decisions=decisions))
        assert regression.compare(current, baseline) == [
            f"s1: {decisions} expert decisions (baseline 26)"
        ]


class TestSameWorkInOneRun:
    """The SQLite and all-features heads replay s3's scenario, so they
    must ask exactly its queries and take exactly its decisions."""

    def test_a_healthy_run_passes(self):
        doc = run_doc(**s3_run())
        assert regression.compare(doc, doc) == []

    def test_a_forced_extra_query_on_the_all_features_head_fails(self):
        baseline = run_doc(**s3_run())
        # one more query is one more primitive record on the live bus
        current = run_doc(**s3_run(
            profile_queries_seen=35, live_primitives=35,
            live_last_seq=84, live_retained=84,
        ))
        current["heads"][ALL]["queries"]["fd_holds"] += 1
        violations = regression.compare(current, baseline)
        assert violations == [
            f"{ALL}: fd_holds issued 23 queries (baseline 22)",
            f"{ALL}: fd_holds issued 23 queries ({S3} 22)",
        ]

    def test_an_in_run_mismatch_fails_even_against_a_matching_baseline(self):
        doc = run_doc(**s3_run())
        doc["heads"][SQLITE]["decisions"] = 25
        assert regression.compare(doc, doc) == [
            f"{SQLITE}: 25 expert decisions ({S3} 26)"
        ]


class TestAllFeaturesFacts:
    @pytest.mark.parametrize(
        "override, message",
        [
            ({"certificates_verified": 1}, "1 of 2 certificates verify"),
            ({"live_trimmed": 3, "live_retained": 80},
             "the live history holds 80 of 83 records (3 trimmed)"),
            ({"live_retained": 82},
             "the live history holds 82 of 83 records (0 trimmed)"),
            ({"live_primitives": 33},
             "the live history holds 33 of 34 primitive records"),
            ({"profile_queries_seen": 30}, "the profile saw 30 of 34 queries"),
            ({"runs_restored": 0}, "the archive restored 0 runs, not 1"),
        ],
    )
    def test_a_broken_fact_fails_and_names_the_head(self, override, message):
        baseline = run_doc(**s3_run())
        current = run_doc(**s3_run(**override))
        assert regression.compare(current, baseline) == [f"{ALL}: {message}"]

    @pytest.mark.parametrize("key", regression.EXACT_FEATURES)
    def test_the_provenance_dag_size_is_pinned(self, key):
        baseline = run_doc(**s3_run())
        current = run_doc(**s3_run(**{key: 90}))
        violations = regression.compare(current, baseline)
        assert len(violations) == 1
        assert violations[0].startswith(f"{ALL}: {key} 90 (baseline ")

    def test_an_unverified_certificate_fails_the_gate(
        self, tmp_path, monkeypatch, capsys
    ):
        path = str(tmp_path / "baseline.json")
        regression.write_baseline(path, run_doc(**s3_run()))
        current = run_doc(**s3_run(certificates_verified=1))
        current["calibration_ms"] = 1.0
        for figures in current["heads"].values():
            figures.update(wall_ms=1.0, cache_hits=0)
        monkeypatch.setattr(regression, "run_all", lambda quick: current)
        assert regression.main(["--quick", "--baseline", path]) == 1
        out = capsys.readouterr().out
        assert f"{ALL}: 1 of 2 certificates verify" in out


class TestLatencyCoverage:
    def test_counts_the_entries_that_clear_the_floor(self):
        floor = regression.LATENCY_FLOOR_UNITS
        baseline = run_doc(
            s1=head(latency_units={"fd_holds": floor, "join_count": floor / 2}),
            s3=head(latency_units={"fd_holds": 0.3}),
        )
        assert regression.latency_coverage(baseline) == (2, 3)

    def test_every_run_prints_the_coverage(self, tmp_path, monkeypatch, capsys):
        path = str(tmp_path / "baseline.json")
        doc = run_doc(s1=head(latency_units={"fd_holds": 0.01}))
        doc["calibration_ms"] = 1.0
        doc["heads"]["s1"].update(wall_ms=1.0, cache_hits=0)
        regression.write_baseline(path, doc)
        monkeypatch.setattr(regression, "run_all", lambda quick: doc)
        assert regression.main(["--quick", "--baseline", path]) == 0
        assert (
            "latency: 0 of 1 primitive entries above the floor (gated)"
            in capsys.readouterr().out
        )


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
