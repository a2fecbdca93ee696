"""The differential harness: batched output must equal serial output.

Every scenario runs the full pipeline twice — ``engine="serial"`` and
``engine="batched"`` — on both backends, and the two runs must agree on
*everything* observable: the elicited dependency sets, every phase's
audit records, the restructured schema, the rendered EER schema, the
exact expert-interaction log (same questions, same order, same answers)
and the extension-query accounting.  Any divergence means the batched
planner changed the method's semantics, not just its execution.
"""

import pytest

from repro.backends import MemoryBackend, SQLiteBackend, backend_names, create_backend
from repro.core.expert import ScriptedExpert
from repro.core.pipeline import DBREPipeline
from repro.eer.render import render_text
from repro.workloads.oracle import OracleExpert
from repro.workloads.paper_example import (
    build_paper_database,
    paper_equijoins,
    paper_expert_script,
)
from repro.workloads.scenario import ScenarioConfig, build_scenario

# registry-driven: adding a backend registers it into this harness too.
# The paged backend runs with a pool far smaller than the extensions so
# the differential guarantee covers the evicting, write-back path.
_BACKEND_OPTIONS = {"paged": {"pool_pages": 8, "page_size": 512}}


def _factory(name):
    options = _BACKEND_OPTIONS.get(name, {})

    def build():
        return create_backend(name, **options)

    build.kind = name
    return build


BACKENDS = {name: _factory(name) for name in backend_names()}


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


def run_paper(engine, backend_factory):
    db = build_paper_database(backend=backend_factory())
    pipeline = DBREPipeline(
        db, ScriptedExpert(paper_expert_script()), engine=engine
    )
    result = pipeline.run(equijoins=paper_equijoins())
    return observable(pipeline, result), result


def run_synthetic(engine, backend_factory, config):
    scenario = build_scenario(config)
    db = scenario.database
    kind = getattr(backend_factory, "kind", None)
    if getattr(db.backend, "kind", None) != kind:
        db = db.copy(backend=backend_factory())
    pipeline = DBREPipeline(
        db, OracleExpert(scenario.truth), engine=engine
    )
    result = pipeline.run(corpus=scenario.corpus)
    return observable(pipeline, result), result


@pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
class TestPaperExample:
    def test_batched_equals_serial(self, backend):
        serial, _ = run_paper("serial", BACKENDS[backend])
        batched, result = run_paper("batched", BACKENDS[backend])
        assert batched == serial
        assert result.engine == "batched"
        stats = result.engine_stats
        assert stats is not None
        assert stats.logical_probes == serial["queries"]
        assert stats.unique_probes < stats.logical_probes

    def test_serial_runs_carry_no_engine_stats(self, backend):
        _, result = run_paper("serial", BACKENDS[backend])
        assert result.engine == "serial"
        assert result.engine_stats is None


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


@pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
@pytest.mark.parametrize("scenario_name", list(scenario_params()))
class TestSyntheticScenarios:
    def test_batched_equals_serial(self, scenario_name, backend):
        config = SCENARIOS[scenario_name]
        serial, _ = run_synthetic("serial", BACKENDS[backend], config)
        batched, result = run_synthetic("batched", BACKENDS[backend], config)
        assert batched == serial
        stats = result.engine_stats
        assert stats.logical_probes == serial["queries"]
        assert stats.backend_calls <= stats.unique_probes


def comparable_provenance(result):
    """Provenance records, span ids masked.

    The batched engine wraps its probes in extra engine spans, so node
    span ids legitimately differ between modes; everything else — node
    ids, labels, attributes, evidence event ids, edges — must match.
    """
    from repro.obs.provenance import provenance_records

    rows = []
    for row in provenance_records(result.provenance):
        if row.get("type") == "node":
            row = dict(row, span=None)
        rows.append(row)
    return rows


@pytest.mark.parametrize("backend", sorted(BACKENDS), ids=sorted(BACKENDS))
class TestProvenanceInvariance:
    """The lineage DAG is a function of the method, not of the executor."""

    def test_paper_lineage_identical_across_engines(self, backend):
        _, serial = run_paper("serial", BACKENDS[backend])
        _, batched = run_paper("batched", BACKENDS[backend])
        assert comparable_provenance(batched) == comparable_provenance(serial)

    def test_scenario_lineage_identical_across_engines(self, backend):
        config = SCENARIOS["clean-default"]
        _, serial = run_synthetic("serial", BACKENDS[backend], config)
        _, batched = run_synthetic("batched", BACKENDS[backend], config)
        assert comparable_provenance(batched) == comparable_provenance(serial)


class TestProvenanceBackendInvariance:
    def test_paper_lineage_identical_across_backends(self):
        _, memory = run_paper("serial", MemoryBackend)
        _, sqlite = run_paper("serial", SQLiteBackend)
        assert comparable_provenance(sqlite) == comparable_provenance(memory)

    def test_evidence_event_ids_do_not_depend_on_the_engine(self):
        def evidence(result):
            return {
                node.node_id: [e["id"] for e in node.events]
                for node in result.provenance.nodes.values()
                if node.events
            }

        _, serial = run_paper("serial", MemoryBackend)
        _, batched = run_paper("batched", MemoryBackend)
        assert evidence(serial) == evidence(batched)
        assert any(evidence(serial).values())
