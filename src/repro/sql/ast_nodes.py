"""AST node classes for the SQL subset.

Nodes are frozen dataclasses; the equi-join extractor pattern-matches on
them, the script loader applies CREATE TABLE and INSERT, and ``str()``
prints any node back as SQL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnRef:
    """``col`` or ``alias.col``; *qualifier* is None when unqualified."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Literal:
    """A number, string or NULL literal."""

    value: object  # int | float | str | None

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class Star:
    """The ``*`` select item."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class Aggregate:
    """``COUNT(DISTINCT expr)``, ``COUNT(*)``, ``MIN(expr)``, ..."""

    function: str                      # COUNT / MIN / MAX / SUM / AVG
    argument: Union[ColumnRef, Star, Tuple[ColumnRef, ...]]
    distinct: bool = False

    def __str__(self) -> str:
        if isinstance(self.argument, tuple):
            arg = ", ".join(str(c) for c in self.argument)
        else:
            arg = str(self.argument)
        d = "DISTINCT " if self.distinct else ""
        return f"{self.function}({d}{arg})"


Expr = Union[ColumnRef, Literal, Star, Aggregate]


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Comparison:
    """``left <op> right`` with op in =, <>, <, <=, >, >=."""

    left: Expr
    op: str
    right: Expr

    def is_column_equality(self) -> bool:
        return (
            self.op == "="
            and isinstance(self.left, ColumnRef)
            and isinstance(self.right, ColumnRef)
        )

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class InSubquery:
    """``expr IN (SELECT ...)`` or ``expr NOT IN (...)``."""

    expr: Expr
    query: "Select"
    negated: bool = False

    def __str__(self) -> str:
        neg = " NOT" if self.negated else ""
        return f"{self.expr}{neg} IN ({self.query})"


@dataclass(frozen=True)
class CompareSubquery:
    """``expr = (SELECT ...)`` — the scalar-subquery equality form."""

    expr: Expr
    op: str
    query: "Select"

    def __str__(self) -> str:
        return f"{self.expr} {self.op} ({self.query})"


@dataclass(frozen=True)
class ExistsSubquery:
    """``EXISTS (SELECT ...)`` / ``NOT EXISTS (...)``."""

    query: "Select"
    negated: bool = False

    def __str__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"{neg}EXISTS ({self.query})"


@dataclass(frozen=True)
class IsNull:
    """``expr IS [NOT] NULL``."""

    expr: Expr
    negated: bool = False

    def __str__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"{self.expr} IS {neg}NULL"


@dataclass(frozen=True)
class Between:
    """``expr [NOT] BETWEEN low AND high``."""

    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def __str__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"{self.expr} {neg}BETWEEN {self.low} AND {self.high}"


@dataclass(frozen=True)
class Like:
    """``expr [NOT] LIKE 'pattern'`` with SQL ``%`` / ``_`` wildcards."""

    expr: Expr
    pattern: str
    negated: bool = False

    def __str__(self) -> str:
        neg = "NOT " if self.negated else ""
        escaped = self.pattern.replace("'", "''")
        return f"{self.expr} {neg}LIKE '{escaped}'"


@dataclass(frozen=True)
class And:
    """Conjunction of predicates (flattened)."""

    operands: Tuple["Predicate", ...]

    def __str__(self) -> str:
        return " AND ".join(str(p) for p in self.operands)


@dataclass(frozen=True)
class Or:
    """Disjunction of predicates (flattened)."""

    operands: Tuple["Predicate", ...]

    def __str__(self) -> str:
        return " OR ".join(f"({p})" for p in self.operands)


@dataclass(frozen=True)
class Not:
    operand: "Predicate"

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


Predicate = Union[
    Comparison, InSubquery, CompareSubquery, ExistsSubquery, IsNull,
    Between, Like, And, Or, Not,
]


# ----------------------------------------------------------------------
# table references and statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TableRef:
    """``name`` or ``name alias`` / ``name AS alias`` in a FROM clause."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is addressed by inside the query."""
        return self.alias or self.name

    def __str__(self) -> str:
        return f"{self.name} {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class Join:
    """``JOIN table ON predicate`` attached to a Select."""

    table: TableRef
    condition: Optional[Predicate]   # None for CROSS-style joins
    kind: str = "INNER"

    def __str__(self) -> str:
        on = f" ON {self.condition}" if self.condition is not None else ""
        return f"{self.kind} JOIN {self.table}{on}"


@dataclass(frozen=True)
class OrderItem:
    expr: ColumnRef
    descending: bool = False

    def __str__(self) -> str:
        return f"{self.expr} DESC" if self.descending else str(self.expr)


@dataclass(frozen=True)
class Select:
    """One SELECT block (possibly a subquery)."""

    items: Tuple[Expr, ...]
    tables: Tuple[TableRef, ...]
    joins: Tuple[Join, ...] = ()
    where: Optional[Predicate] = None
    distinct: bool = False
    order_by: Tuple[OrderItem, ...] = ()
    group_by: Tuple[ColumnRef, ...] = ()
    having: Optional[Predicate] = None

    def __str__(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(str(i) for i in self.items))
        parts.append("FROM")
        parts.append(", ".join(str(t) for t in self.tables))
        for j in self.joins:
            parts.append(str(j))
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(str(c) for c in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(str(o) for o in self.order_by))
        return " ".join(parts)


@dataclass(frozen=True)
class Intersect:
    """``select INTERSECT select [INTERSECT ...]``."""

    queries: Tuple[Select, ...]

    def __str__(self) -> str:
        return " INTERSECT ".join(str(q) for q in self.queries)


@dataclass(frozen=True)
class Union:
    """``select UNION [ALL] select [...]`` (one ALL flag for the chain)."""

    queries: Tuple[Select, ...]
    all: bool = False

    def __str__(self) -> str:
        joiner = " UNION ALL " if self.all else " UNION "
        return joiner.join(str(q) for q in self.queries)


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    not_null: bool = False
    unique: bool = False
    primary_key: bool = False

    def __str__(self) -> str:
        parts = [self.name, self.type_name]
        if self.primary_key:
            parts.append("PRIMARY KEY")
        if self.unique:
            parts.append("UNIQUE")
        if self.not_null:
            parts.append("NOT NULL")
        return " ".join(parts)


@dataclass(frozen=True)
class TableConstraint:
    """Table-level ``UNIQUE (a, b)`` or ``PRIMARY KEY (a, b)``."""

    kind: str                 # "UNIQUE" or "PRIMARY KEY"
    columns: Tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.kind} ({', '.join(self.columns)})"


@dataclass(frozen=True)
class ForeignKey:
    """Table-level ``FOREIGN KEY (a) REFERENCES t (b)``."""

    columns: Tuple[str, ...]
    table: str
    ref_columns: Tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"FOREIGN KEY ({', '.join(self.columns)}) "
            f"REFERENCES {self.table} ({', '.join(self.ref_columns)})"
        )


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: Tuple[ColumnDef, ...]
    constraints: Tuple["TableConstraint | ForeignKey", ...] = ()

    def __str__(self) -> str:
        inner = [str(c) for c in self.columns] + [str(c) for c in self.constraints]
        return f"CREATE TABLE {self.name} ({', '.join(inner)})"


@dataclass(frozen=True)
class Insert:
    table: str
    columns: Tuple[str, ...]          # empty = positional
    rows: Tuple[Tuple[object, ...], ...]

    def __str__(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        rows = ", ".join(
            "(" + ", ".join(str(Literal(v)) for v in row) + ")" for row in self.rows
        )
        return f"INSERT INTO {self.table}{cols} VALUES {rows}"


@dataclass(frozen=True)
class DropTable:
    name: str

    def __str__(self) -> str:
        return f"DROP TABLE {self.name}"


@dataclass(frozen=True)
class Assignment:
    """One ``col = literal`` of an UPDATE's SET clause."""

    column: str
    value: Literal

    def __str__(self) -> str:
        return f"{self.column} = {self.value}"


@dataclass(frozen=True)
class Update:
    """``UPDATE table SET assignments [WHERE predicate]``."""

    table: str
    assignments: Tuple[Assignment, ...]
    where: Optional[Predicate] = None

    def __str__(self) -> str:
        text = f"UPDATE {self.table} SET " + ", ".join(
            str(a) for a in self.assignments
        )
        if self.where is not None:
            text += f" WHERE {self.where}"
        return text


@dataclass(frozen=True)
class Delete:
    """``DELETE FROM table [WHERE predicate]``."""

    table: str
    where: Optional[Predicate] = None

    def __str__(self) -> str:
        text = f"DELETE FROM {self.table}"
        if self.where is not None:
            text += f" WHERE {self.where}"
        return text


import typing as _typing

Statement = _typing.Union[
    Select, Intersect, Union, CreateTable, Insert, DropTable, Update, Delete
]
