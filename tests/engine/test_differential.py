"""The differential harness: every backend's output must equal memory's.

Every scenario runs the full pipeline on the memory backend and on each
other registered backend, and the runs must agree on *everything*
observable: the elicited dependency sets, every phase's audit records,
the restructured schema, the rendered EER schema, the exact
expert-interaction log (same questions, same order, same answers), the
extension-query accounting and the lineage DAG.  Any divergence means a
backend changed the method's semantics, not just where the extension
lives.
"""

import pytest

from repro.backends import MemoryBackend, SQLiteBackend, backend_names
from repro.backends import backend_factory as registered_factory
from repro.core.expert import ScriptedExpert
from repro.core.pipeline import DBREPipeline
from repro.eer.render import render_text
from repro.relational.database import Database
from repro.workloads.oracle import OracleExpert
from repro.workloads.paper_example import (
    build_paper_database,
    paper_equijoins,
    paper_expert_script,
)
from repro.workloads.scenario import ScenarioConfig, build_scenario

# registry-driven: adding a backend registers it into this harness too
BACKENDS = {name: registered_factory(name) for name in backend_names()}
#: the backends compared against the memory reference
OTHERS = sorted(name for name in BACKENDS if name != "memory")


def observable(pipeline, result):
    """Everything a run exposes, as one comparable structure."""
    return {
        "inds": [repr(i) for i in result.inds],
        "ind_outcomes": [repr(o) for o in result.ind_result.outcomes],
        "s_names": result.ind_result.s_names,
        "lhs": [repr(r) for r in result.lhs_result.lhs],
        "lhs_hidden": [repr(r) for r in result.lhs_result.hidden],
        "fds": [repr(f) for f in result.fds],
        "rhs_outcomes": [repr(o) for o in result.rhs_result.outcomes],
        "hidden": [repr(r) for r in result.hidden],
        "ric": [repr(i) for i in result.ric],
        "schema": [repr(r) for r in result.restructured.schema],
        "eer": render_text(result.eer),
        "notes": result.translation_notes,
        "warnings": result.translation_warnings,
        "expert_log": [
            (i.kind, i.question, repr(i.value)) for i in pipeline.expert.log
        ],
        "decisions": result.expert_decisions,
        "queries": result.extension_queries,
    }


def run_paper(backend_factory):
    db = build_paper_database(backend=backend_factory())
    pipeline = DBREPipeline(db, ScriptedExpert(paper_expert_script()))
    result = pipeline.run(equijoins=paper_equijoins())
    return observable(pipeline, result), result


#: edge extensions of the paper database: ``Assignment`` (the relation
#: behind three of the five equi-joins) emptied, or with every cell NULL
EDGE_ASSIGNMENTS = {
    "assignment-empty": lambda rows: [],
    "assignment-all-null": lambda rows: [(None,) * len(row) for row in rows],
}


def run_paper_edge(backend_factory, edge):
    source = build_paper_database()
    db = Database(source.schema.copy(), backend=backend_factory())
    for name in source.schema.relation_names:
        rows = list(source.backend.rows(name))
        if name == "Assignment":
            rows = EDGE_ASSIGNMENTS[edge](rows)
        db.insert_many(name, rows)
    pipeline = DBREPipeline(db, ScriptedExpert(paper_expert_script()))
    result = pipeline.run(equijoins=paper_equijoins())
    return observable(pipeline, result), result


def run_synthetic(backend_factory, config):
    scenario = build_scenario(config)
    db = scenario.database
    kind = getattr(backend_factory, "kind", None)
    if getattr(db.backend, "kind", None) != kind:
        db = db.copy(backend=backend_factory())
    pipeline = DBREPipeline(db, OracleExpert(scenario.truth))
    result = pipeline.run(corpus=scenario.corpus)
    return observable(pipeline, result), result


def comparable_provenance(result):
    """Provenance records, span ids masked.

    Node span ids are tracer-local bookkeeping; everything else — node
    ids, labels, attributes, evidence event ids, edges — must match.
    """
    from repro.obs.provenance import provenance_records

    rows = []
    for row in provenance_records(result.provenance):
        if row.get("type") == "node":
            row = dict(row, span=None)
        rows.append(row)
    return rows


def assert_same_run(run, reference):
    """Two ``(observable, result)`` pairs agree, lineage included."""
    (seen, result), (expected, expected_result) = run, reference
    assert seen == expected
    assert comparable_provenance(result) == comparable_provenance(expected_result)


@pytest.mark.parametrize("backend", OTHERS, ids=OTHERS)
class TestPaperExample:
    def test_backend_equals_memory(self, backend):
        assert_same_run(run_paper(BACKENDS[backend]), run_paper(BACKENDS["memory"]))


@pytest.mark.parametrize("backend", OTHERS, ids=OTHERS)
@pytest.mark.parametrize("edge", sorted(EDGE_ASSIGNMENTS))
class TestPaperEdgeExtensions:
    def test_backend_equals_memory(self, edge, backend):
        assert_same_run(
            run_paper_edge(BACKENDS[backend], edge),
            run_paper_edge(BACKENDS["memory"], edge),
        )


SCENARIOS = {
    "clean-default": ScenarioConfig(),
    "corrupted-inds": ScenarioConfig(
        seed=21, corruption_ind_rate=0.5, corruption_row_rate=0.2
    ),
    "hidden-objects": ScenarioConfig(seed=11, merges=3),
    "link-merges": ScenarioConfig(seed=5, n_many_to_many=2, link_merges=1),
    "subtypes-weak": ScenarioConfig(seed=13, subtypes=1, weak_entities=1),
    "partial-coverage": ScenarioConfig(seed=17, coverage=0.6),
}

#: small scenarios keep the default CI lane fast; the rest are the
#: nightly/full lane (-m "" or -m slow)
FAST_SCENARIOS = ("clean-default", "corrupted-inds")


def scenario_params():
    for name in sorted(SCENARIOS):
        marks = [] if name in FAST_SCENARIOS else [pytest.mark.slow]
        yield pytest.param(name, id=name, marks=marks)


@pytest.mark.parametrize("backend", OTHERS, ids=OTHERS)
@pytest.mark.parametrize("scenario_name", list(scenario_params()))
class TestSyntheticScenarios:
    def test_backend_equals_memory(self, scenario_name, backend):
        config = SCENARIOS[scenario_name]
        assert_same_run(
            run_synthetic(BACKENDS[backend], config),
            run_synthetic(BACKENDS["memory"], config),
        )


class TestProvenanceBackendInvariance:
    def test_paper_lineage_identical_across_backends(self):
        _, memory = run_paper(MemoryBackend)
        _, sqlite = run_paper(SQLiteBackend)
        assert comparable_provenance(sqlite) == comparable_provenance(memory)

    def test_evidence_event_ids_do_not_depend_on_the_backend(self):
        def evidence(result):
            return {
                node.node_id: [e["id"] for e in node.events]
                for node in result.provenance.nodes.values()
                if node.events
            }

        _, memory = run_paper(MemoryBackend)
        _, sqlite = run_paper(SQLiteBackend)
        assert evidence(sqlite) == evidence(memory)
        assert any(evidence(memory).values())
