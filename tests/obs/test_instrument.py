"""Database instruments its four primitives: one recorded call each."""

from __future__ import annotations

import pytest

from repro.backends import MemoryBackend
from repro.obs import Tracer
from repro.relational import Database, DatabaseSchema, RelationSchema
from repro.relational.domain import INTEGER


class StubBackend:
    """A minimal backend standing in for the real ones."""

    kind = "stub"

    def __init__(self):
        self.probed = []

    def attach(self, schema):
        pass

    def probe(self, primitive, relations, attributes):
        self.probed.append((primitive, relations, attributes))
        return True, 42

    def count_distinct(self, relation, attrs):
        return 3

    def join_count(self, left, left_attrs, right, right_attrs):
        return 2

    def fd_holds(self, relation, lhs, rhs):
        return True

    def inclusion_holds(self, left, left_attrs, right, right_attrs):
        return False


@pytest.fixture
def tracer():
    return Tracer()


@pytest.fixture
def stub():
    return StubBackend()


@pytest.fixture
def db(stub, tracer):
    return Database(backend=stub, tracer=tracer)


class TestEvents:
    def test_each_primitive_records_one_event(self, db, tracer):
        assert db.count_distinct("r", ("a",)) == 3
        assert db.join_count("r", ("a",), "s", ("b",)) == 2
        assert db.fd_holds("r", ("a",), ("b",)) is True
        assert db.inclusion_holds("r", ("a",), "s", ("b",)) is False
        assert [e.primitive for e in tracer.events] == [
            "count_distinct",
            "join_count",
            "fd_holds",
            "inclusion_holds",
        ]
        assert all(e.backend == "stub" for e in tracer.events)

    def test_event_carries_probe_figures(self, db, stub, tracer):
        db.count_distinct("r", ["a", "b"])
        (event,) = tracer.events
        assert event.cache_hit is True
        assert event.rows_touched == 42
        assert event.relations == ("r",)
        assert event.attributes == (("a", "b"),)
        # the probe saw the same normalized arguments
        assert stub.probed == [("count_distinct", ("r",), (("a", "b"),))]

    def test_fd_holds_packs_lhs_and_rhs_as_two_attribute_tuples(self, db, tracer):
        db.fd_holds("r", ["x"], ["y", "z"])
        (event,) = tracer.events
        assert event.relations == ("r",)
        assert event.attributes == (("x",), ("y", "z"))

    def test_events_attributed_to_the_open_span(self, db, tracer):
        with tracer.span("IND-Discovery", kind="phase") as span:
            db.count_distinct("r", ("a",))
        assert tracer.events[0].span_id == span.span_id


class TestRealBackendProbe:
    def test_memory_backend_reports_hit_after_identical_query(self, tracer):
        schema = DatabaseSchema([RelationSchema.build("r", ["a", "b"], types={"a": INTEGER})])
        db = Database(schema, backend=MemoryBackend(), tracer=tracer)
        db.insert_many("r", [[1, "x"], [2, "y"], [2, "z"]])

        assert db.count_distinct("r", ("a",)) == 2
        assert db.count_distinct("r", ("a",)) == 2
        cold, warm = tracer.events
        assert cold.cache_hit is False and cold.rows_touched == 3
        assert warm.cache_hit is True and warm.rows_touched == 0
