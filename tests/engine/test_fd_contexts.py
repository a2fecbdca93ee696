"""The expert's evidence is the same on every backend, and it is right.

RHS-Discovery shows the expert an :class:`~repro.core.expert.FDContext`
(the satisfaction ratio and up to three witness pairs) before a failing
``A -> b`` may be enforced.  Both figures come from one memoised LHS
grouping of the relation, on the table or on a stored backend's
hydrated mirror.  A recording expert captures every context a run
shows; each must equal the one the property suite's naive oracles build
from the same extension, and the three backends must show the same
contexts in the same order.
"""

import pytest

from repro.backends import backend_names, create_backend
from repro.core.expert import FDContext
from repro.core.pipeline import DBREPipeline
from repro.workloads.scenario import ScenarioConfig, build_scenario
from tests.property.test_property_algebra import naive_ratio, naive_violation_pairs

#: the wide scenario (seeds 1-2) and a small scan scenario
WIDE = dict(n_entities=30, n_one_to_many=26, n_many_to_many=4, merges=8, parent_rows=5)
SCAN = dict(n_entities=7, n_one_to_many=6, merges=2, parent_rows=100)
CONFIGS = {
    "wide-1": ScenarioConfig(seed=1, **WIDE),
    "wide-2": ScenarioConfig(seed=2, **WIDE),
    "scan-900": ScenarioConfig(seed=900, **SCAN),
}


def oracle_context(database, fd):
    """The context the naive oracles build from *database*'s extension."""
    table = database.table(fd.relation)
    lhs, rhs = tuple(fd.lhs), tuple(fd.rhs)
    return FDContext(
        fd,
        naive_ratio(table, lhs, rhs),
        tuple(f"{a!r} / {b!r}" for a, b in naive_violation_pairs(table, lhs, rhs, 3)),
    )


def recorded_contexts(config, kind):
    """Every FDContext one serial run on *kind* shows its expert."""
    scenario = build_scenario(config)
    database = scenario.database.copy(backend=create_backend(kind))
    expert = scenario.expert
    seen = []
    answer = expert.enforce_fd

    def enforce_fd(context):
        seen.append(context)
        return answer(context)

    expert.enforce_fd = enforce_fd
    DBREPipeline(database, expert).run(corpus=scenario.corpus)
    return database, seen


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_contexts_equal_the_oracles_on_every_backend(name):
    shown = {}
    for kind in backend_names():
        # RHS-Discovery reads the working copy before Restruct mutates
        # it, so the oracle reads the same extension from the original
        database, contexts = recorded_contexts(CONFIGS[name], kind)
        assert contexts, "the scenario shows the expert no failing FD"
        for context in contexts:
            assert context == oracle_context(database, context.fd), (kind, context.fd)
        shown[kind] = contexts
    first = shown["memory"]
    for kind, contexts in shown.items():
        assert contexts == first, kind
