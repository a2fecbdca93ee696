"""S4 — the interactive cost: expert decisions vs data quality.

The method is interactive by design ("the expert user is involved only
for validation purposes"); this bench counts those involvements.  Clean
extensions need few answers (validations of found FDs, hidden-object
confirmations); every corrupted foreign-key path adds NEI and
enforcement questions.  The paper example itself needs about a dozen
answers end to end — the bench prints the exact budget by question kind.
"""


from benchmarks.conftest import report
from repro.core import DBREPipeline, ScriptedExpert
from repro.evaluation.counters import cost_report_from_trace
from repro.workloads.paper_example import (
    build_paper_database,
    paper_expert_script,
    paper_program_corpus,
)
from repro.workloads.scenario import ScenarioConfig, build_scenario

BASE = dict(n_entities=8, n_one_to_many=7, merges=2, parent_rows=20)


def test_s4_paper_example_budget(benchmark):
    def run():
        pipeline = DBREPipeline(
            build_paper_database(), ScriptedExpert(paper_expert_script())
        )
        return pipeline, pipeline.run(corpus=paper_program_corpus())

    pipeline, result = benchmark(run)
    by_kind = {}
    for interaction in pipeline.expert.log:
        by_kind[interaction.kind] = by_kind.get(interaction.kind, 0) + 1
    report(
        "S4: expert budget on the paper's example",
        ["question kind", "count"],
        sorted(by_kind.items()),
    )
    assert by_kind["nei"] == 1               # the Assignment/Department NEI
    assert by_kind["hidden"] == 3            # HEmployee.no + the 2 given up
    assert result.expert_decisions <= 15


def test_s4_decisions_vs_corruption(benchmark):
    rows = []
    counts = []
    for rate in (0.0, 0.5, 1.0):
        scenario = build_scenario(
            ScenarioConfig(
                seed=700, corruption_ind_rate=rate,
                corruption_row_rate=0.12, **BASE,
            )
        )
        pipeline = DBREPipeline(scenario.database, scenario.expert)
        result = pipeline.run(corpus=scenario.corpus)
        costs = cost_report_from_trace(result.trace, pipeline.expert)
        counts.append(result.expert_decisions)
        rows.append(
            [
                f"{rate:.2f}",
                len(scenario.corruption.corrupted_inds),
                costs.expert_by_kind.get("nei", 0),
                costs.expert_by_kind.get("enforce", 0),
                costs.expert_by_kind.get("validate", 0),
                costs.expert_by_kind.get("hidden", 0),
                result.expert_decisions,
                result.extension_queries,
            ]
        )
    report(
        "S4: interactive cost vs corruption rate (oracle expert)",
        [
            "corruption", "INDs corrupted", "NEI", "enforce",
            "validate", "hidden", "total decisions", "extension queries",
        ],
        rows,
    )
    # dirtier data means more questions, never fewer
    assert counts[0] <= counts[-1]

    scenario = build_scenario(
        ScenarioConfig(seed=700, corruption_ind_rate=1.0,
                       corruption_row_rate=0.12, **BASE)
    )
    pipeline = DBREPipeline(scenario.database, scenario.expert)
    benchmark(pipeline.run, corpus=scenario.corpus)
