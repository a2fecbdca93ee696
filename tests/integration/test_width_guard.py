"""A wide schema stays linear in the method's ``⊔``: a count, not a timing.

The paper's ``IND``, ``LHS``, ``H`` and ``F`` are sets.  Kept as lists with
``in``-scans they cost O(n²) ``__eq__`` calls, and Restruct's redirect of
the IND set onto every new relation O(n³): on the 120-entity shape below
a list-scan run made 543,924 ``InclusionDependency.__eq__`` and 17,631
``AttributeRef.__eq__`` calls.  With hash membership the same run makes
none and 251.  The ``AttributeRef`` bound is twice that; the IND bound
allows one comparison per elicited IND.  The counts do not depend on the
hash seed, because a set only compares elements whose full hashes are
equal.

The run's query and decision counts are pinned too, so a change to what
the method asks shows here as well.
"""

from repro.core import DBREPipeline
from repro.dependencies.ind import InclusionDependency
from repro.obs.tracer import Tracer
from repro.relational.attribute import AttributeRef
from repro.workloads.scenario import ScenarioConfig, build_scenario

#: four times the service-wide shape: 120 entities, at most 5 parent rows
WIDE_120 = ScenarioConfig(
    seed=1,
    n_entities=120,
    n_one_to_many=104,
    n_many_to_many=16,
    merges=32,
    parent_rows=5,
)
#: twice the 251 calls measured with hash membership
MAX_REF_EQ = 502


def counting(monkeypatch, cls):
    """Count calls of ``cls.__eq__`` for the rest of the test."""
    calls = [0]
    original = cls.__eq__

    def eq(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(cls, "__eq__", eq)
    return calls


def test_wide_run_is_linear_in_its_sets(monkeypatch):
    scenario = build_scenario(WIDE_120)
    tracer = Tracer()
    ind_eq = counting(monkeypatch, InclusionDependency)
    ref_eq = counting(monkeypatch, AttributeRef)
    result = DBREPipeline(scenario.database, scenario.expert, tracer=tracer).run(
        corpus=scenario.corpus
    )
    assert (result.extension_queries, result.expert_decisions) == (871, 605)
    assert ind_eq[0] <= len(result.inds) == 180, ind_eq[0]
    assert ref_eq[0] <= MAX_REF_EQ, ref_eq[0]
