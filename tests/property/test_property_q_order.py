"""The order of Q never matters (hypothesis).

§4 takes ``Q`` as a *set* of equi-joins.  Whatever the random scenario,
running the method on a permutation of the equi-joins extracted from
its programs, on memory or SQLite, must recover the same IND, FD and
RIC sets and the same EER, asking the same number of extension queries
and expert decisions as the run that extracted them.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import create_backend
from repro.core import DBREPipeline
from repro.eer.render import render_text
from repro.workloads.scenario import build_scenario
from tests.property.test_property_row_order import BACKENDS, scenario_configs


def outputs(result):
    """IND, FD and RIC sets, the rendered EER and the two counts."""
    return (
        sorted(repr(ind) for ind in result.inds),
        sorted(repr(fd) for fd in result.fds),
        sorted(repr(ric) for ric in result.ric),
        render_text(result.eer),
        result.extension_queries,
        result.expert_decisions,
    )


class TestQOrderInvariance:
    @given(scenario_configs, st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_permuted_equijoins_leave_outputs_unchanged(self, config, shuffle_seed):
        scenario = build_scenario(config)
        rng = random.Random(shuffle_seed)
        for kind in BACKENDS:
            database = scenario.database.copy(backend=create_backend(kind))
            try:
                extracted = DBREPipeline(database, scenario.expert).run(
                    corpus=scenario.corpus
                )
                shuffled = list(extracted.equijoins)
                rng.shuffle(shuffled)
                permuted = DBREPipeline(database, scenario.expert).run(
                    equijoins=shuffled
                )
                assert outputs(permuted) == outputs(extracted), kind
            finally:
                database.close()
