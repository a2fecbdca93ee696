"""DDL generation across the full type system."""

import pytest

from repro.relational import Attribute, Database, RelationSchema
from repro.relational.domain import BOOLEAN, DATE, INTEGER, NULL, REAL, TEXT
from repro.sql import load_sql_script
from repro.storage.ddl import migration_script


@pytest.fixture
def typed_db():
    schema = RelationSchema(
        "everything",
        [
            Attribute("id", INTEGER, nullable=False),
            Attribute("ratio", REAL),
            Attribute("label", TEXT),
            Attribute("day", DATE),
            Attribute("flag", BOOLEAN),
        ],
    )
    schema.declare_unique(("id",))
    db = Database()
    db.create_relation(schema)
    db.insert("everything", [1, 2.5, "x", "2020-01-02", True])
    db.insert("everything", [2, NULL, "it's", NULL, False])
    return db


class TestTypedRoundTrip:
    def test_all_types_replay_through_engine(self, typed_db):
        script = migration_script(typed_db)
        fresh = Database()
        load_sql_script(fresh, script)
        rows = sorted(r.values for r in fresh.table("everything"))
        assert rows[0] == (1, 2.5, "x", "2020-01-02", True)
        assert rows[1][1] is NULL
        assert rows[1][2] == "it's"
        assert rows[1][4] is False

    def test_type_names_in_ddl(self, typed_db):
        script = migration_script(typed_db, include_data=False)
        for fragment in ("INTEGER", "NUMERIC", "VARCHAR(255)", "DATE", "BOOLEAN"):
            assert fragment in script

    def test_restored_schema_types_match(self, typed_db):
        script = migration_script(typed_db, include_data=False)
        fresh = Database()
        load_sql_script(fresh, script)
        restored = fresh.schema.relation("everything")
        original = typed_db.schema.relation("everything")
        for name in original.attribute_names:
            assert restored.attribute(name).dtype == original.attribute(name).dtype
