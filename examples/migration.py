"""The full migration loop: legacy SQL in, normalized SQL out.

What a practitioner actually ships at the end of a reverse-engineering
project, demonstrated on the paper's example:

1. run the pipeline (schema + programs + expert answers);
2. write the audit trail (Markdown session report);
3. generate the migration script — ``CREATE TABLE`` statements for the
   recovered 3NF schema with the elicited referential integrity
   constraints as ``FOREIGN KEY`` clauses, plus the data as INSERTs;
4. prove the script is executable by loading it back through the
   library's script loader and re-validating every constraint;
5. round-trip the conceptual schema: map the Figure-1 EER schema back
   to relational (forward engineering) and check it matches what
   Restruct produced.

Run:  python examples/migration.py
"""

from repro import Database, DBREPipeline, ScriptedExpert, load_sql_script
from repro.core import session_report
from repro.dependencies.ind_inference import ind_satisfied
from repro.eer import eer_to_relational
from repro.storage.ddl import migration_script
from repro.workloads import (
    build_paper_database,
    paper_expert_script,
    paper_program_corpus,
)


def main() -> None:
    pipeline = DBREPipeline(
        build_paper_database(), ScriptedExpert(paper_expert_script())
    )
    result = pipeline.run(corpus=paper_program_corpus())
    print(f"pipeline: {result!r}")

    # -- the audit trail ------------------------------------------------
    report = session_report(result, pipeline.expert, title="Migration audit")
    print(f"session report: {len(report.splitlines())} lines of Markdown")

    # -- the migration script -------------------------------------------
    script = migration_script(result.restructured, result.ric)
    print("\n== migration script (head) ==")
    for line in script.splitlines()[:14]:
        print(f"  {line}")
    print(f"  ... ({len(script.splitlines())} lines total)")

    # -- executable proof -------------------------------------------------
    # the loader skips the FOREIGN KEY clauses (they are for the target
    # DBMS), so the elicited constraints are re-checked on the data
    replay = Database()
    load_sql_script(replay, script)
    replay.validate()
    violations = [
        ind for ind in result.ric if not ind_satisfied(replay, ind)
    ]
    print(f"\nreplayed into a fresh engine: {len(replay.schema)} relations, "
          f"{sum(len(t) for t in replay.tables())} rows")
    print(f"referential constraints violated after replay: {len(violations)}")
    assert not violations

    # -- conceptual round-trip --------------------------------------------
    forward_schema, forward_ric = eer_to_relational(result.eer)
    same_relations = (
        forward_schema.relation_names
        == result.restructured.schema.relation_names
    )
    same_ric = set(forward_ric) == set(result.ric)
    print("\nEER round-trip (Figure 1 -> relational):")
    print(f"  relations match: {same_relations}")
    print(f"  RIC matches:     {same_ric}")
    assert same_relations and same_ric


if __name__ == "__main__":
    main()
