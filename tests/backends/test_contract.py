"""The executable backend contract.

Every registered :class:`ExtensionBackend` must answer the paper's four
instrumented primitives — and the row/lifecycle operations around them —
identically on the Figure-1 example: same counts, same NULL handling,
same ``QueryCounter`` bookkeeping, same error surface.  The suite is
parametrized over the backend registry, so a new backend only has to
join ``tests/backends/conftest.py`` to inherit the whole contract.
"""

import pytest

from repro.exceptions import (
    ArityError,
    TypingError,
    UnknownAttributeError,
    UnknownRelationError,
)
from repro.relational import Database, DatabaseSchema, RelationSchema
from repro.relational.domain import INTEGER, NULL, REAL
from repro.workloads.paper_example import build_paper_database


@pytest.fixture
def db(backend_factory) -> Database:
    return build_paper_database(backend=backend_factory())


class TestCountDistinct:
    def test_paper_section5_counts(self, db):
        assert db.count_distinct("Person", ("id",)) == 22
        assert db.count_distinct("HEmployee", ("no",)) == 15
        assert db.count_distinct("Assignment", ("dep",)) == 9
        assert db.count_distinct("Department", ("dep",)) == 8

    def test_nulls_skipped(self, db):
        # Department.emp has two NULLs among eight rows
        assert db.count_distinct("Department", ("emp",)) == 6
        assert db.count_distinct("Department", ("emp", "skill")) == 6

    def test_multi_attribute_and_order(self, db):
        assert db.count_distinct("HEmployee", ("no", "date")) == 30
        assert db.count_distinct("HEmployee", ("date", "no")) == 30

    def test_repeated_queries_stable_and_counted(self, db):
        first = db.count_distinct("Person", ("zip-code",))
        second = db.count_distinct("Person", ("zip-code",))
        assert first == second == 5
        assert db.counter.count_distinct == 2


class TestJoinCount:
    def test_paper_nei_shape(self, db):
        # the §6.1 Assignment/Department non-empty intersection: 9 vs 8, 6 shared
        assert db.join_count("Assignment", ("dep",), "Department", ("dep",)) == 6

    def test_full_inclusion_shape(self, db):
        assert db.join_count("HEmployee", ("no",), "Person", ("id",)) == 15

    def test_nulls_never_join(self, db):
        # Department.emp (6 distinct non-NULL) against HEmployee.no
        assert db.join_count("Department", ("emp",), "HEmployee", ("no",)) == 6

    def test_arity_mismatch(self, db):
        with pytest.raises(ArityError):
            db.join_count("HEmployee", ("no", "date"), "Person", ("id",))


class TestFDHolds:
    def test_paper_fds_hold(self, db):
        assert db.fd_holds("Department", ("emp",), ("skill", "proj"))
        assert db.fd_holds("Assignment", ("proj",), ("project-name",))
        assert db.fd_holds("Person", ("zip-code",), ("state",))

    def test_paper_fds_fail(self, db):
        assert not db.fd_holds("HEmployee", ("no",), ("salary",))
        assert not db.fd_holds("Department", ("proj",), ("emp",))
        assert not db.fd_holds("Assignment", ("emp",), ("dep",))

    def test_null_lhs_rows_skipped(self, db):
        # the two NULL-emp Department rows must not break emp -> location
        assert db.fd_holds("Department", ("emp",), ("skill",))

    def test_null_rhs_is_one_marked_value(self, backend_factory):
        schema = DatabaseSchema(
            [RelationSchema.build("t", ["k", "v"], types={"k": INTEGER})]
        )
        db = Database(schema, backend=backend_factory())
        db.insert_many("t", [[1, NULL], [1, NULL], [2, "x"]])
        assert db.fd_holds("t", ("k",), ("v",))
        db.insert("t", [1, "y"])  # NULL vs 'y' now disagree under key 1
        assert not db.fd_holds("t", ("k",), ("v",))


class TestInclusionHolds:
    def test_paper_inclusions(self, db):
        assert db.inclusion_holds("HEmployee", ("no",), "Person", ("id",))
        assert db.inclusion_holds("Department", ("emp",), "HEmployee", ("no",))
        assert not db.inclusion_holds("Assignment", ("dep",), "Department", ("dep",))
        assert not db.inclusion_holds("Person", ("id",), "HEmployee", ("no",))

    def test_null_bearing_tuples_skipped_on_the_left(self, db):
        # NULL Department.emp rows do not count as missing from HEmployee
        assert db.inclusion_holds("Department", ("emp",), "HEmployee", ("no",))

    def test_arity_mismatch(self, db):
        with pytest.raises(ArityError):
            db.inclusion_holds("HEmployee", ("no", "date"), "Person", ("id",))


class TestQueryCounter:
    def test_identical_bookkeeping(self, db):
        db.count_distinct("Person", ("id",))
        db.count_distinct("Person", ("id",))
        db.join_count("HEmployee", ("no",), "Person", ("id",))
        db.fd_holds("Department", ("emp",), ("skill",))
        db.inclusion_holds("HEmployee", ("no",), "Person", ("id",))
        assert db.counter.count_distinct == 2
        assert db.counter.join_count == 1
        assert db.counter.fd_checks == 1
        assert db.counter.inclusion_checks == 1
        assert db.counter.total() == 5


class TestRowAccess:
    def test_row_count_and_scan_order(self, db):
        assert db.backend.row_count("Department") == 8
        rows = list(db.backend.rows("Department"))
        assert len(rows) == 8
        assert rows[0][0] == "D1" and rows[-1][0] == "D8"

    def test_insert_mapping_defaults_to_null(self, backend_factory):
        schema = DatabaseSchema(
            [RelationSchema.build("t", ["a", "b"], types={"a": INTEGER})]
        )
        db = Database(schema, backend=backend_factory())
        db.insert("t", {"a": 1})
        (values,) = list(db.backend.rows("t"))
        assert values[0] == 1 and values[1] is NULL

    def test_values_and_fingerprint_match_memory(self, backend_factory):
        """Regression: a REAL column stored ``2`` on memory but ``2.0`` on
        SQLite, so the same rows fingerprinted differently per backend."""
        from repro.backends import MemoryBackend
        from repro.service.jobs import database_fingerprint

        def build(backend):
            schema = DatabaseSchema([
                RelationSchema.build(
                    "t", ["i", "r", "s"], types={"i": INTEGER, "r": REAL}
                )
            ])
            db = Database(schema, backend=backend)
            db.insert_many("t", [[1, 2, "a"], [2, 2.5, "b"], [3, NULL, None]])
            return db

        here, memory = build(backend_factory()), build(MemoryBackend())
        rows, expected = list(here.backend.rows("t")), list(memory.backend.rows("t"))
        assert rows == expected
        assert [tuple(map(type, r)) for r in rows] == [
            tuple(map(type, r)) for r in expected
        ]
        assert type(rows[0][1]) is float
        assert database_fingerprint(here) == database_fingerprint(memory)

    def test_insert_validates_typing(self, db):
        with pytest.raises(TypingError):
            db.insert("Person", ["not-an-int", "x", "y", 1, "69100", "Rhone"])

    def test_table_view_writes_through(self, db):
        before = db.count_distinct("Person", ("id",))
        db.table("Person").insert(
            [99, "person-99", "rue Zéro", 1, "69100", "Rhone"]
        )
        assert db.count_distinct("Person", ("id",)) == before + 1

    def test_unknown_relation(self, db):
        with pytest.raises(UnknownRelationError):
            db.table("Nobody")
        with pytest.raises(UnknownRelationError):
            db.count_distinct("Nobody", ("x",))
        with pytest.raises(UnknownRelationError):
            db.insert("Nobody", [1])

    def test_unknown_attribute(self, db):
        with pytest.raises(UnknownAttributeError):
            db.count_distinct("Person", ("not-there",))
        with pytest.raises(UnknownAttributeError):
            db.fd_holds("Person", ("id",), ("not-there",))


class TestRelationLifecycle:
    def test_create_insert_drop(self, backend_factory):
        db = Database(backend=backend_factory())
        db.create_relation(
            RelationSchema.build("t", ["v"], types={"v": INTEGER})
        )
        db.insert_many("t", [[1], [2], [2]])
        assert db.count_distinct("t", ("v",)) == 2
        db.drop_relation("t")
        with pytest.raises(UnknownRelationError):
            db.count_distinct("t", ("v",))

    def test_recreate_under_same_name_serves_fresh_results(self, backend_factory):
        """Regression: a recreated relation reaching the same mutation
        version as its predecessor must not serve the old distinct set."""
        db = Database(backend=backend_factory())
        schema = RelationSchema.build("t", ["v"], types={"v": INTEGER})
        db.create_relation(schema)
        db.insert_many("t", [[1], [2], [3]])       # version 3
        assert db.count_distinct("t", ("v",)) == 3
        db.drop_relation("t")
        db.create_relation(
            RelationSchema.build("t", ["v"], types={"v": INTEGER})
        )
        db.insert_many("t", [[7], [7], [7]])       # version 3 again
        assert db.count_distinct("t", ("v",)) == 1

    def test_replace_relation_projects_and_keeps_duplicates(self, backend_factory):
        db = Database(backend=backend_factory())
        db.create_relation(
            RelationSchema.build("t", ["a", "b"], types={"a": INTEGER})
        )
        db.insert_many("t", [[1, "x"], [1, "y"], [2, "z"]])
        assert db.count_distinct("t", ("a", "b")) == 3
        db.replace_relation(
            RelationSchema.build("t", ["a"], types={"a": INTEGER})
        )
        assert db.backend.row_count("t") == 3      # duplicates kept
        assert db.count_distinct("t", ("a",)) == 2
        with pytest.raises(UnknownAttributeError):
            db.count_distinct("t", ("b",))


class TestCopy:
    def test_copy_preserves_backend_kind_and_values(self, backend_factory):
        db = build_paper_database(backend=backend_factory())
        clone = db.copy()
        assert type(clone.backend) is type(db.backend)
        assert clone.count_distinct("Person", ("id",)) == 22
        clone.insert("Person", [99, "x", "y", 1, "69100", "Rhone"])
        assert db.count_distinct("Person", ("id",)) == 22   # original untouched

    def test_copy_converts_between_backends(self, backend_factory):
        from repro.backends import MemoryBackend

        db = build_paper_database(backend=backend_factory())
        materialized = db.copy(backend=MemoryBackend())
        assert materialized.count_distinct("Person", ("id",)) == 22


class TestProbeHook:
    """`probe(...)` — the observability contract behind `repro profile`.

    A probe predicts the cost of an imminent primitive without running
    it: `(cache_hit, rows_touched)`.  The prediction must track the
    distinct-value cache — cold scans cost the relation's row count,
    warm ones are free — and mutations must invalidate it.  Probing
    itself must never warm the cache.
    """

    def test_cold_distinct_probe_costs_one_scan(self, db):
        hit, rows = db.backend.probe(
            "count_distinct", ("Person",), (("id",),)
        )
        assert hit is False
        assert rows == db.backend.row_count("Person")

    def test_warm_distinct_probe_is_free(self, db):
        db.count_distinct("Person", ("id",))
        hit, rows = db.backend.probe(
            "count_distinct", ("Person",), (("id",),)
        )
        assert hit is True
        assert rows == 0

    def test_probe_is_side_effect_free(self, db):
        db.backend.probe("count_distinct", ("Person",), (("id",),))
        hit, _ = db.backend.probe(
            "count_distinct", ("Person",), (("id",),)
        )
        assert hit is False        # still cold: probing did not warm it

    def test_cold_join_probe_is_a_miss_with_scan_cost(self, db):
        both = db.backend.row_count("HEmployee") + db.backend.row_count(
            "Person"
        )
        hit, rows = db.backend.probe(
            "join_count",
            ("HEmployee", "Person"),
            (("no",), ("id",)),
        )
        assert hit is False
        assert 0 < rows <= both

    def test_warm_join_probe_is_a_hit(self, db):
        db.join_count("HEmployee", ("no",), "Person", ("id",))
        hit, rows = db.backend.probe(
            "join_count",
            ("HEmployee", "Person"),
            (("no",), ("id",)),
        )
        assert hit is True
        assert rows == 0

    def test_cold_fd_probe_costs_the_lhs_scan(self, db):
        hit, rows = db.backend.probe(
            "fd_holds", ("HEmployee",), (("no",), ("salary",))
        )
        assert hit is False
        assert rows == db.backend.row_count("HEmployee")

    def test_mutation_invalidates_the_prediction(self, db):
        db.count_distinct("Person", ("id",))
        db.insert("Person", [99, "person-99", "rue Zéro", 1, "69100", "Rhone"])
        hit, rows = db.backend.probe(
            "count_distinct", ("Person",), (("id",),)
        )
        assert hit is False
        assert rows == db.backend.row_count("Person")


class TestBatchContract:
    """The optional ``execute_batch`` hook and its serial-fallback twin.

    Every backend must produce identical answers through the batch
    executor, whether it implements the hook (SQLite: one grouped
    statement) or not (memory: the executor's serial/parallel path).
    """

    def _probes(self):
        from repro.engine import Probe

        return [
            Probe.distinct("Person", ("id",)),
            Probe.distinct("Department", ("emp", "skill")),
            Probe.join("HEmployee", ("no",), "Person", ("id",)),
            Probe.join("Assignment", ("dep",), "Department", ("dep",)),
            Probe.fd("Department", ("emp",), ("skill", "proj")),
            Probe.fd("HEmployee", ("no",), ("salary",)),
            Probe.inclusion("HEmployee", ("no",), "Person", ("id",)),
            Probe.inclusion("Person", ("id",), "HEmployee", ("no",)),
        ]

    #: the serial ground truth for the probes above, backend-independent
    EXPECTED = [22, 6, 15, 6, True, False, True, False]

    def test_executor_answers_match_serial_primitives(self, db):
        from repro.engine import BatchExecutor

        assert BatchExecutor(db).run(self._probes()) == self.EXPECTED

    def test_hook_when_present_matches_primitives(self, db):
        hook = getattr(db.backend, "execute_batch", None)
        if not callable(hook):
            pytest.skip("backend has no execute_batch hook (fallback path)")
        assert list(hook(self._probes())) == self.EXPECTED

    def test_hook_results_align_positionally(self, db):
        hook = getattr(db.backend, "execute_batch", None)
        if not callable(hook):
            pytest.skip("backend has no execute_batch hook (fallback path)")
        probes = self._probes()
        reversed_answers = hook(list(reversed(probes)))
        assert list(reversed_answers) == list(reversed(self.EXPECTED))

    def test_hook_sees_mutations(self, db):
        """Batch answers must honor the same invalidation as primitives."""
        from repro.engine import BatchExecutor, Probe

        probe = [Probe.distinct("Person", ("id",))]
        assert BatchExecutor(db).run(probe) == [22]
        db.insert("Person", [99, "person-99", "rue Zéro", 1, "69100", "Rhone"])
        assert BatchExecutor(db).run(probe) == [23]

    def test_fallback_matches_hook(self, db):
        """Hiding the hook must not change a single answer."""
        from repro.engine import BatchExecutor

        class Veiled:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                if name in ("execute_batch", "parallel_safe"):
                    raise AttributeError(name)
                return getattr(self._inner, name)

        proxy = type("ProxyDB", (), {
            "backend": Veiled(db.backend), "tracer": db.tracer,
        })()
        engine = BatchExecutor(proxy, max_workers=1)
        assert engine.run(self._probes()) == self.EXPECTED
        assert engine.stats.batched_calls == 0
        assert engine.stats.backend_calls == len(self._probes())
