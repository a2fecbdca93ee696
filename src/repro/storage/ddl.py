"""Forward engineering: emit a schema (and its data) back as SQL.

The end product of a reverse-engineering project is usually a
*migration*: the recovered 3NF schema must be created somewhere and the
legacy data moved into it.  This module renders a
:class:`~repro.relational.schema.DatabaseSchema` as ``CREATE TABLE``
statements — including the referential integrity constraints the method
elicited, as standard ``FOREIGN KEY`` clauses — and a database's
extension as ``INSERT`` statements.  The emitted script loads back
through :func:`repro.sql.load_sql_script` (asserted by tests), which
parses the ``FOREIGN KEY`` clauses and skips them: they are emitted for
the target DBMS.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.dependencies.ind import InclusionDependency
from repro.relational.database import Database
from repro.relational.domain import is_null
from repro.relational.schema import DatabaseSchema, RelationSchema

_TYPE_NAMES = {
    "INTEGER": "INTEGER",
    "REAL": "NUMERIC",
    "TEXT": "VARCHAR(255)",
    "DATE": "DATE",
    "BOOLEAN": "BOOLEAN",
}


def _quote_name(name: str) -> str:
    """Quote identifiers that need it (the paper's hyphenated names do)."""
    if name.replace("_", "").isalnum() and not name[0].isdigit():
        return name
    return '"' + name.replace('"', '""') + '"'


def _literal(value: object) -> str:
    if is_null(value):
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return str(value)
    text = str(value).replace("'", "''")
    return f"'{text}'"


def create_table_sql(
    relation: RelationSchema,
    foreign_keys: Sequence[InclusionDependency] = (),
) -> str:
    """One ``CREATE TABLE`` statement for *relation*.

    *foreign_keys* are the RIC elements whose left-hand side lives in
    this relation; each becomes a ``FOREIGN KEY ... REFERENCES`` clause.
    """
    lines: List[str] = []
    primary = relation.primary_key()
    primary_names = set(primary.names) if primary is not None else set()
    for attr in relation.attributes:
        parts = [f"    {_quote_name(attr.name)} {_TYPE_NAMES[attr.dtype.name]}"]
        if not attr.nullable and attr.name not in primary_names:
            parts.append("NOT NULL")
        lines.append(" ".join(parts))
    if primary is not None:
        cols = ", ".join(_quote_name(a) for a in primary.names)
        lines.append(f"    PRIMARY KEY ({cols})")
    for unique in relation.uniques:
        if primary is not None and unique.attributes == primary:
            continue
        cols = ", ".join(_quote_name(a) for a in unique.attributes)
        lines.append(f"    UNIQUE ({cols})")
    for ind in foreign_keys:
        if ind.lhs_relation != relation.name:
            continue
        local = ", ".join(_quote_name(a) for a in ind.lhs_attrs)
        remote = ", ".join(_quote_name(a) for a in ind.rhs_attrs)
        lines.append(
            f"    FOREIGN KEY ({local}) REFERENCES "
            f"{_quote_name(ind.rhs_relation)} ({remote})"
        )
    body = ",\n".join(lines)
    return f"CREATE TABLE {_quote_name(relation.name)} (\n{body}\n);"


def schema_to_sql(
    schema: DatabaseSchema,
    ric: Sequence[InclusionDependency] = (),
) -> str:
    """The full DDL script, referenced relations first.

    Relations are ordered so every ``REFERENCES`` target is created
    before its referrer (cycles fall back to name order — the emitted
    constraints are then forward references, acceptable to DBMSs with
    deferred checking).
    """
    names = schema.relation_names
    dependencies = {name: set() for name in names}
    for ind in ric:
        if ind.lhs_relation in dependencies and ind.rhs_relation in dependencies:
            if ind.lhs_relation != ind.rhs_relation:
                dependencies[ind.lhs_relation].add(ind.rhs_relation)

    ordered: List[str] = []
    remaining = set(names)
    while remaining:
        ready = sorted(
            n for n in remaining if dependencies[n] <= set(ordered)
        )
        if not ready:            # cycle: emit the rest in name order
            ready = sorted(remaining)
        for name in ready:
            ordered.append(name)
            remaining.discard(name)

    statements = [
        create_table_sql(schema.relation(name), ric) for name in ordered
    ]
    return "\n\n".join(statements) + "\n"


def inserts_to_sql(database: Database, batch_size: int = 50) -> str:
    """INSERT statements for every row of every table."""
    statements: List[str] = []
    for table in database.tables():
        rows = [
            "(" + ", ".join(_literal(v) for v in row.values) + ")"
            for row in table
        ]
        for start in range(0, len(rows), batch_size):
            chunk = rows[start : start + batch_size]
            statements.append(
                f"INSERT INTO {_quote_name(table.name)} VALUES\n    "
                + ",\n    ".join(chunk)
                + ";"
            )
    return "\n\n".join(statements) + ("\n" if statements else "")


def migration_script(
    database: Database,
    ric: Sequence[InclusionDependency] = (),
    include_data: bool = True,
) -> str:
    """DDL (+ optionally data) for a whole database — the migration
    artifact of a reverse-engineering project."""
    script = schema_to_sql(database.schema, ric)
    if include_data:
        data = inserts_to_sql(database)
        if data:
            script = script + "\n" + data
    return script
