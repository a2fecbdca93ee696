"""Load a legacy database from a SQL script: its CREATE TABLE and INSERTs.

The method reads a database through its schema (K, N) and its extension,
so a ``.sql`` database script is applied, not evaluated: ``CREATE TABLE``
declares each relation with its types, nullability and uniques, and
``INSERT`` adds rows.  ``FOREIGN KEY`` clauses are parsed and skipped —
the method elicits the referential constraints itself.  Any other
statement is refused before the database is touched.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.exceptions import SQLExecutionError
from repro.relational.attribute import Attribute
from repro.relational.database import Database
from repro.relational.domain import NULL, type_named
from repro.relational.schema import RelationSchema
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statements


def load_sql_script(database: Database, text: str) -> None:
    """Apply the CREATE TABLE and INSERT statements of *text* to *database*."""
    statements = parse_statements(text)
    for number, stmt in enumerate(statements, start=1):
        if not isinstance(stmt, (ast.CreateTable, ast.Insert)):
            kind = str(stmt).split(" ", 1)[0]
            raise SQLExecutionError(
                "only CREATE TABLE and INSERT are loaded from a database "
                f"script; found {kind} (statement {number})"
            )
    for stmt in statements:
        if isinstance(stmt, ast.CreateTable):
            _create(database, stmt)
        else:
            _insert(database, stmt)


def _create(database: Database, stmt: ast.CreateTable) -> None:
    attrs: List[Attribute] = []
    uniques: List[Tuple[str, ...]] = []
    for col in stmt.columns:
        attrs.append(
            Attribute(col.name, type_named(col.type_name), nullable=not col.not_null)
        )
        if col.unique or col.primary_key:
            uniques.append((col.name,))
    schema = RelationSchema(stmt.name, attrs)
    for constraint in stmt.constraints:
        if isinstance(constraint, ast.TableConstraint):
            uniques.append(constraint.columns)
    for u in uniques:
        schema.declare_unique(u)
    database.create_relation(schema)


def _insert(database: Database, stmt: ast.Insert) -> None:
    table = database.table(stmt.table)
    for row in stmt.rows:
        if stmt.columns:
            if len(row) != len(stmt.columns):
                raise SQLExecutionError(
                    f"INSERT arity mismatch on {stmt.table}: "
                    f"{len(stmt.columns)} columns, {len(row)} values"
                )
            mapping = {c: (NULL if v is None else v) for c, v in zip(stmt.columns, row)}
            table.insert(mapping)
        else:
            table.insert([NULL if v is None else v for v in row])
