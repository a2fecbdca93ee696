"""Tables, rows, and constraint validation over dirty data."""

import pytest

from repro.exceptions import (
    ArityError,
    ConstraintViolationError,
    TypingError,
    UnknownAttributeError,
)
from repro.relational.domain import INTEGER, NULL, REAL
from repro.relational.schema import RelationSchema
from repro.relational.table import Row, Table


@pytest.fixture
def person_schema():
    return RelationSchema.build(
        "Person", ["id", "name", "city"], key=["id"], types={"id": INTEGER}
    )


@pytest.fixture
def person_table(person_schema):
    t = Table(person_schema)
    t.insert([1, "alice", "Lyon"])
    t.insert([2, "bob", NULL])
    return t


class TestRow:
    def test_access_by_name_and_position(self, person_table):
        row = person_table[0]
        assert row["name"] == "alice"
        assert row[1] == "alice"

    def test_project_and_null_check(self, person_table):
        assert person_table[1].project(("name", "city")) == ("bob", NULL)
        assert person_table[1].has_null(("city",))
        assert not person_table[0].has_null(("id", "name"))

    def test_arity_enforced(self, person_schema):
        with pytest.raises(ArityError):
            Row(person_schema, [1, "too-short"])

    def test_typing_enforced(self, person_schema):
        with pytest.raises(TypingError):
            Row(person_schema, ["not-int", "x", "y"])

    def test_as_dict(self, person_table):
        assert person_table[0].as_dict() == {
            "id": 1, "name": "alice", "city": "Lyon",
        }


class TestTableInsert:
    def test_insert_by_mapping_defaults_to_null(self, person_schema):
        t = Table(person_schema)
        t.insert({"id": 5, "name": "eve"})
        assert t[0]["city"] is NULL

    def test_insert_unknown_attribute_rejected(self, person_schema):
        t = Table(person_schema)
        with pytest.raises(UnknownAttributeError):
            t.insert({"id": 5, "ghost": 1})

    def test_insert_many_and_len(self, person_schema):
        t = Table(person_schema)
        t.insert_many([[i, f"p{i}", "x"] for i in range(5)])
        assert len(t) == 5

    def test_replace_rows(self, person_table):
        person_table.replace_rows([[9, "zoe", "Nice"]])
        assert len(person_table) == 1
        assert person_table[0]["id"] == 9

    def test_delete_where(self, person_table):
        removed = person_table.delete_where(lambda r: r["name"] == "bob")
        assert removed == 1
        assert len(person_table) == 1


class TestValidation:
    def test_clean_table_validates(self, person_table):
        person_table.validate()

    def test_duplicate_key_detected(self, person_schema):
        t = Table(person_schema)
        t.insert([1, "a", "x"])
        t.insert([1, "b", "y"])
        with pytest.raises(ConstraintViolationError):
            t.validate()

    def test_null_in_key_detected(self, person_schema):
        t = Table(person_schema)
        t.insert([NULL, "a", "x"])
        with pytest.raises(ConstraintViolationError):
            t.validate()

    def test_not_null_detected(self):
        schema = RelationSchema.build(
            "R", ["a", "b"], key=["a"], not_null=["b"], types={"a": INTEGER}
        )
        t = Table(schema)
        t.insert([1, NULL])
        with pytest.raises(ConstraintViolationError):
            t.validate()

    def test_violations_lists_without_raising(self, person_schema):
        t = Table(person_schema)
        t.insert([1, "a", "x"])
        t.insert([1, "b", "y"])
        problems = t.violations()
        assert len(problems) == 1
        assert "duplicate" in problems[0]

    def test_dirty_data_is_storable(self, person_schema):
        # the engine must HOLD corrupt data; validation is explicit
        t = Table(person_schema)
        t.insert([1, "a", "x"])
        t.insert([1, "b", "y"])
        assert len(t) == 2


class TestWithSchema:
    def test_projection_to_narrower_schema(self, person_table):
        narrow = person_table.schema.without_attributes(["city"])
        projected = person_table.with_schema(narrow)
        assert projected.schema.attribute_names == ("id", "name")
        assert [r.values for r in projected] == [(1, "alice"), (2, "bob")]

    def test_projection_carries_the_version_forward(self, person_table):
        """Regression: with_schema used to restart the mutation counter
        at the row count, so a projected table could re-reach a version
        its source had already published to version-guarded caches."""
        narrow = person_table.schema.without_attributes(["city"])
        projected = person_table.with_schema(narrow)
        assert projected.version >= person_table.version + len(person_table)

    def test_same_schema_shares_values_under_fresh_rows(self, person_table):
        twin = person_table.schema.renamed(person_table.name)
        copy = person_table.with_schema(twin)
        assert [r.values for r in copy] == [r.values for r in person_table]
        assert all(r.schema is twin for r in copy)
        assert all(a is not b for a, b in zip(copy, person_table))

    def test_integer_to_real_still_widens(self):
        source = Table(RelationSchema.build("R", ["a", "b"], types={"a": INTEGER}))
        source.insert_many([[1, "x"], [NULL, "y"]])
        wider = RelationSchema.build("R", ["a", "b"], types={"a": REAL})
        values = [r.values for r in source.with_schema(wider)]
        assert values == [(1.0, "x"), (NULL, "y")]
        assert type(values[0][0]) is float

    def test_real_to_integer_still_raises(self):
        source = Table(RelationSchema.build("R", ["a"], types={"a": REAL}))
        source.insert([2.5])
        with pytest.raises(TypingError):
            source.with_schema(
                RelationSchema.build("R", ["a"], types={"a": INTEGER})
            )

    def test_every_table_has_a_distinct_generation(self, person_table):
        narrow = person_table.schema.without_attributes(["city"])
        projected = person_table.with_schema(narrow)
        assert projected.generation != person_table.generation
        assert Table(person_table.schema).generation > projected.generation
