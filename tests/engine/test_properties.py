"""Property-based tests of the planner and executor (Hypothesis).

The planner invariants hold for *any* probe list: nothing is dropped,
nothing is invented, grouping is a partition, and answers line up with
submissions positionally.  The executor invariants are checked against
a small concrete database: every answer equals the direct primitive
call, and one trace event is recorded per logical probe.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import BatchExecutor, Probe, plan_probes
from repro.engine.executor import dispatch_probe
from repro.relational import Database, DatabaseSchema, RelationSchema
from repro.relational.domain import INTEGER, NULL


# ----------------------------------------------------------------------
# probe strategies over a fixed tiny universe
# ----------------------------------------------------------------------
RELATIONS = ("r", "s")
ATTRS = ("a", "b", "c")

single_attr = st.sampled_from(ATTRS)
attr_pair = st.tuples(single_attr, single_attr)
relation = st.sampled_from(RELATIONS)


@st.composite
def probes(draw):
    primitive = draw(st.sampled_from(
        ("count_distinct", "join_count", "fd_holds", "inclusion_holds")
    ))
    if primitive == "count_distinct":
        return Probe.distinct(draw(relation), (draw(single_attr),))
    if primitive == "fd_holds":
        return Probe.fd(draw(relation), (draw(single_attr),),
                        (draw(single_attr),))
    left, right = draw(relation), draw(relation)
    if primitive == "join_count":
        return Probe.join(left, (draw(single_attr),),
                          right, (draw(single_attr),))
    return Probe.inclusion(left, (draw(single_attr),),
                           right, (draw(single_attr),))


probe_lists = st.lists(probes(), max_size=30)


def build_db(r_rows, s_rows) -> Database:
    schema = DatabaseSchema([
        RelationSchema.build("r", list(ATTRS),
                             types={a: INTEGER for a in ATTRS}),
        RelationSchema.build("s", list(ATTRS),
                             types={a: INTEGER for a in ATTRS}),
    ])
    db = Database(schema)
    db.insert_many("r", [[NULL if v is None else v for v in row]
                         for row in r_rows])
    db.insert_many("s", [[NULL if v is None else v for v in row]
                         for row in s_rows])
    return db


values = st.one_of(st.integers(0, 4), st.none())
rows = st.lists(st.tuples(values, values, values), max_size=12)


# ----------------------------------------------------------------------
# planner invariants
# ----------------------------------------------------------------------
class TestPlannerProperties:
    @given(probe_lists)
    def test_requests_preserved_verbatim(self, batch):
        plan = plan_probes(batch)
        assert list(plan.requests) == batch

    @given(probe_lists)
    def test_dedupe_never_drops_or_invents(self, batch):
        plan = plan_probes(batch)
        assert {p.key for p in plan.unique} == {p.key for p in batch}
        assert len({p.key for p in plan.unique}) == len(plan.unique)

    @given(probe_lists)
    def test_unique_order_is_first_occurrence(self, batch):
        plan = plan_probes(batch)
        seen = []
        for probe in batch:
            if probe.key not in seen:
                seen.append(probe.key)
        assert [p.key for p in plan.unique] == seen

    @given(probe_lists)
    def test_groups_partition_unique(self, batch):
        plan = plan_probes(batch)
        grouped = [p for g in plan.groups for p in g.probes]
        assert sorted(p.key for p in grouped) == sorted(
            p.key for p in plan.unique
        )
        for group in plan.groups:
            assert group.probes
            for probe in group.probes:
                assert probe.footprint == group.footprint


# ----------------------------------------------------------------------
# executor invariants
# ----------------------------------------------------------------------
class TestExecutorProperties:
    @settings(deadline=None, max_examples=50)
    @given(rows, rows, probe_lists)
    def test_answers_match_direct_dispatch(self, r_rows, s_rows, batch):
        db = build_db(r_rows, s_rows)
        answers = BatchExecutor(db).run(batch)
        expected = [dispatch_probe(db.backend, p) for p in batch]
        assert answers == expected

    @settings(deadline=None, max_examples=25)
    @given(rows, rows, probe_lists)
    def test_one_event_per_logical_probe(self, r_rows, s_rows, batch):
        db = build_db(r_rows, s_rows)
        BatchExecutor(db).run(batch)
        assert [
            (e.primitive, e.relations, e.attributes)
            for e in db.tracer.events
        ] == [(p.primitive, p.relations, p.attributes) for p in batch]
        assert db.counter.total() == len(batch)
