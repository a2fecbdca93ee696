"""Metrics, schema recovery scoring, cost accounting."""

import pytest

from repro.core import DBREPipeline
from repro.dependencies.fd import FunctionalDependency as FD
from repro.dependencies.ind import InclusionDependency as IND
from repro.evaluation.counters import cost_report_from_trace
from repro.evaluation.metrics import (
    PrecisionRecall,
    score_fds,
    score_inds,
    score_refs,
)
from repro.evaluation.schema_match import score_schema_recovery
from repro.relational.attribute import AttributeRef
from repro.workloads.scenario import ScenarioConfig, build_scenario


class TestPrecisionRecall:
    def test_arithmetic(self):
        pr = PrecisionRecall(3, 1, 2)
        assert pr.precision == 0.75
        assert pr.recall == 0.6
        assert pr.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)

    def test_empty_sets_are_perfect(self):
        pr = PrecisionRecall(0, 0, 0)
        assert pr.precision == 1.0 and pr.recall == 1.0 and pr.f1 == 1.0


class TestFDScoring:
    def test_grouped_rhs_equals_split_rhs(self):
        recovered = [FD("R", ("a",), ("b", "c"))]
        truth = [FD("R", ("a",), ("b",)), FD("R", ("a",), ("c",))]
        pr = score_fds(recovered, truth)
        assert pr.precision == 1.0 and pr.recall == 1.0

    def test_partial_recovery(self):
        recovered = [FD("R", ("a",), ("b",))]
        truth = [FD("R", ("a",), ("b", "c"))]
        pr = score_fds(recovered, truth)
        assert pr.precision == 1.0
        assert pr.recall == 0.5

    def test_spurious_fd_costs_precision(self):
        recovered = [FD("R", ("a",), ("b",)), FD("R", ("x",), ("y",))]
        truth = [FD("R", ("a",), ("b",))]
        pr = score_fds(recovered, truth)
        assert pr.precision == 0.5 and pr.recall == 1.0


class TestINDScoring:
    def test_exact_match(self):
        inds = [IND("A", ("x",), "B", ("y",))]
        pr = score_inds(inds, inds)
        assert pr.f1 == 1.0

    def test_closure_credit(self):
        truth = [IND("A", ("x",), "B", ("y",)), IND("B", ("y",), "C", ("z",))]
        recovered = truth + [IND("A", ("x",), "C", ("z",))]   # implied
        with_credit = score_inds(recovered, truth)
        without = score_inds(recovered, truth, closure_credit=False)
        assert with_credit.false_positives == 0
        assert without.false_positives == 1

    def test_refs_scoring(self):
        truth = [AttributeRef("R", "a")]
        pr = score_refs([AttributeRef("R", "a"), AttributeRef("R", "b")], truth)
        assert pr.true_positives == 1 and pr.false_positives == 1


class TestSchemaRecovery:
    @pytest.fixture(scope="class")
    def run(self):
        scenario = build_scenario(ScenarioConfig(seed=7))
        result = DBREPipeline(scenario.database, scenario.expert).run(
            corpus=scenario.corpus
        )
        return scenario, result

    def test_clean_scenario_recovers_everything(self, run):
        scenario, result = run
        recovery = score_schema_recovery(scenario.truth, result.restructured)
        assert recovery.missing == []
        assert recovery.recovery_rate == 1.0

    def test_merged_parents_found_as_split_relations(self, run):
        scenario, result = run
        recovery = score_schema_recovery(scenario.truth, result.restructured)
        for merge in scenario.truth.merges:
            assert merge.parent in recovery.recovered

    def test_missing_reported(self, run):
        scenario, result = run
        # score against a database lacking the split relations
        recovery = score_schema_recovery(scenario.truth, scenario.database)
        assert recovery.missing or recovery.partial


class TestCostReport:
    def test_cost_report_from_pipeline(self, paper_db, paper_corpus, paper_expert):
        pipeline = DBREPipeline(paper_db, paper_expert)
        result = pipeline.run(corpus=paper_corpus)
        # the run's trace and the recording expert the pipeline wrapped
        report = cost_report_from_trace(result.trace, pipeline.expert)
        assert report.total_queries == result.extension_queries
        assert report.expert_decisions == result.expert_decisions
        assert report.expert_by_kind.get("nei") == 1
        assert report.expert_by_kind.get("hidden") == 3
