"""DDL generation: the migration artifact."""

import pytest

from repro.core import DBREPipeline
from repro.relational import Database
from repro.sql import load_sql_script
from repro.storage.ddl import (
    create_table_sql,
    inserts_to_sql,
    migration_script,
    schema_to_sql,
)


@pytest.fixture(scope="module")
def paper_run():
    from repro.core import ScriptedExpert
    from repro.workloads.paper_example import (
        build_paper_database,
        paper_expert_script,
        paper_program_corpus,
    )

    pipeline = DBREPipeline(
        build_paper_database(), ScriptedExpert(paper_expert_script())
    )
    return pipeline.run(corpus=paper_program_corpus())


class TestCreateTable:
    def test_basic_statement(self, tiny_db):
        sql = create_table_sql(tiny_db.schema.relation("person"))
        assert sql.startswith("CREATE TABLE person")
        assert "person_id INTEGER" in sql
        assert "PRIMARY KEY (person_id)" in sql

    def test_not_null_emitted_for_non_key(self, paper_run):
        sql = create_table_sql(
            paper_run.restructured.schema.relation("Department")
        )
        assert "location VARCHAR(255) NOT NULL" in sql

    def test_hyphenated_names_quoted(self, paper_run):
        sql = create_table_sql(
            paper_run.restructured.schema.relation("Project")
        )
        assert '"project-name"' in sql

    def test_foreign_keys_from_ric(self, paper_run):
        schema = paper_run.restructured.schema
        sql = create_table_sql(schema.relation("Manager"), paper_run.ric)
        assert "FOREIGN KEY (emp) REFERENCES Employee (no)" in sql
        assert "FOREIGN KEY (proj) REFERENCES Project (proj)" in sql


class TestSchemaScript:
    def test_references_precede_referrers(self, paper_run):
        script = schema_to_sql(paper_run.restructured.schema, paper_run.ric)
        order = [
            line.split()[2].strip('"(')
            for line in script.splitlines()
            if line.startswith("CREATE TABLE")
        ]
        # Employee is referenced by Manager/Assignment/HEmployee: earlier
        assert order.index("Employee") < order.index("Manager")
        assert order.index("Person") < order.index("Employee")
        assert order.index("Project") < order.index("Assignment")

    def test_all_relations_emitted(self, paper_run):
        script = schema_to_sql(paper_run.restructured.schema, paper_run.ric)
        assert script.count("CREATE TABLE") == 9

    def test_ddl_round_trips_through_own_engine(self, paper_run):
        script = schema_to_sql(paper_run.restructured.schema, paper_run.ric)
        assert "FOREIGN KEY" in script
        fresh = Database()
        load_sql_script(fresh, script)
        original = paper_run.restructured.schema
        assert fresh.schema.relation_names == original.relation_names
        for name in original.relation_names:
            got = fresh.schema.relation(name)
            want = original.relation(name)
            assert got.attribute_names == want.attribute_names
            assert set(tuple(u.attributes) for u in got.uniques) == set(
                tuple(u.attributes) for u in want.uniques
            )


class TestMigration:
    def test_full_round_trip_with_data(self, paper_run):
        script = migration_script(paper_run.restructured, paper_run.ric)
        fresh = Database()
        load_sql_script(fresh, script)
        fresh.validate()
        for table in paper_run.restructured.tables():
            restored = fresh.table(table.name)
            assert len(restored) == len(table)
            assert {r.values for r in restored} == {r.values for r in table}

    def test_inserts_batched(self, paper_db):
        text = inserts_to_sql(paper_db, batch_size=10)
        # Person has 22 rows -> 3 INSERT statements
        assert text.count("INSERT INTO Person") == 3

    def test_nulls_and_quotes_escaped(self, tiny_db):
        tiny_db.insert("city", [9, "O'Brien"])
        text = inserts_to_sql(tiny_db)
        assert "'O''Brien'" in text
        assert "NULL" in text       # dave's missing city

    def test_schema_only_script(self, paper_run):
        script = migration_script(
            paper_run.restructured, paper_run.ric, include_data=False
        )
        assert "INSERT" not in script
        assert "FOREIGN KEY" in script
