"""Row order never matters (hypothesis).

§2's four questions — ``count distinct``, equi-join cardinality, FD and
inclusion tests — read each extension as a bag.  Whatever the random
scenario, loading every relation's rows in another order, on memory
or SQLite, must leave the recovered IND, FD, RIC and EER, the
query and decision counts, and the database fingerprint identical; a
duplicated row or a single edited value must change the fingerprint.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import create_backend
from repro.core import DBREPipeline
from repro.eer.render import render_text
from repro.relational import Database
from repro.relational.domain import is_null
from repro.service.jobs import database_fingerprint
from repro.workloads.scenario import ScenarioConfig, build_scenario

BACKENDS = ("memory", "sqlite")

scenario_configs = st.builds(
    ScenarioConfig,
    seed=st.integers(0, 10_000),
    n_entities=st.integers(4, 6),
    n_one_to_many=st.integers(3, 5),
    n_many_to_many=st.integers(0, 1),
    merges=st.integers(0, 2),
    parent_rows=st.just(8),
    corruption_ind_rate=st.sampled_from([0.0, 0.5]),
)


def load(source: Database, kind: str, rows_of) -> Database:
    """A *kind* database holding ``rows_of(name)`` for each relation."""
    database = Database(source.schema.copy(), backend=create_backend(kind))
    for name in source.schema.relation_names:
        database.insert_many(name, rows_of(name))
    return database


def outputs(database: Database, scenario):
    """IND, FD, RIC, the rendered EER and the two counts of one run."""
    result = DBREPipeline(database, scenario.expert).run(corpus=scenario.corpus)
    return (
        tuple(repr(ind) for ind in result.inds),
        tuple(repr(fd) for fd in result.fds),
        tuple(repr(ric) for ric in result.ric),
        render_text(result.eer),
        result.extension_queries,
        result.expert_decisions,
    )


def edited(value):
    """A different value of the same Python type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "~"
    return value + 1


class TestRowOrderInvariance:
    @given(scenario_configs, st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_permuted_rows_leave_outputs_and_fingerprint_unchanged(
        self, config, shuffle_seed
    ):
        scenario = build_scenario(config)
        source = scenario.database
        reference = outputs(source, scenario)
        fingerprint = database_fingerprint(source)
        rng = random.Random(shuffle_seed)

        def shuffled(name):
            rows = list(source.backend.rows(name))
            rng.shuffle(rows)
            return rows

        for kind in BACKENDS:
            database = load(source, kind, shuffled)
            try:
                assert database_fingerprint(database) == fingerprint, kind
                assert outputs(database, scenario) == reference, kind
            finally:
                database.close()

    @given(scenario_configs, st.data())
    @settings(max_examples=20, deadline=None)
    def test_a_duplicated_row_or_an_edited_value_changes_it(self, config, data):
        source = build_scenario(config).database
        fingerprint = database_fingerprint(source)
        names = [n for n in source.schema.relation_names if source.backend.row_count(n)]
        target = data.draw(st.sampled_from(names), label="relation")
        rows = list(source.backend.rows(target))
        cells = [
            (i, column)
            for i, row in enumerate(rows)
            for column, value in enumerate(row)
            if not is_null(value)
        ]
        index, column = data.draw(st.sampled_from(cells), label="cell")
        changed = list(rows[index])
        changed[column] = edited(changed[column])

        def duplicated(name):
            return rows + [rows[index]] if name == target else source.backend.rows(name)

        def edit(name):
            if name != target:
                return source.backend.rows(name)
            return rows[:index] + [changed] + rows[index + 1:]

        for kind in BACKENDS:
            for variant in (duplicated, edit):
                database = load(source, kind, variant)
                try:
                    assert database_fingerprint(database) != fingerprint, (kind, variant)
                finally:
                    database.close()
