"""Recognizing equi-joins in parsed SQL — computing the paper's set ``Q``.

§4 lists the forms an equi-join hides in: an unnested query with a
``WHERE`` clause (possibly equating several attribute pairs between the
same two relations), nested queries (``IN`` / scalar ``=`` / correlated
``EXISTS``), and the ``INTERSECT`` operator.  The extractor handles all of
them, resolves aliases and unqualified column names against the database
schema, and aggregates multiple attribute equalities between the same two
table bindings into one multi-attribute equi-join — exactly the
``A_k = {a_i1 .. a_in}`` construction in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import SQLError
from repro.programs.corpus import ApplicationProgram, ProgramCorpus
from repro.programs.embedded import SQLUnit, extract_sql_units
from repro.programs.equijoin import EquiJoin
from repro.relational.schema import DatabaseSchema
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_sql
from repro.util.ordering import SortedUnion

# a scope frame: binding name -> relation name (innermost last in the chain)
Scope = Tuple[Dict[str, str], ...]


@dataclass(frozen=True)
class ResolvedColumn:
    """A column reference resolved to its binding and base relation."""

    binding: str
    relation: str
    attribute: str


@dataclass
class ExtractionReport:
    """Everything an extraction run learned, with provenance.

    ``joins`` is the deduplicated, deterministic set ``Q``;
    ``provenance`` maps each join to the (program, statement-index) pairs
    it was seen in; ``skipped`` lists statements the parser rejected;
    ``warnings`` records unresolvable or ambiguous column references.
    """

    joins: List[EquiJoin] = field(default_factory=list)
    provenance: Dict[EquiJoin, List[Tuple[str, int]]] = field(default_factory=dict)
    skipped: List[Tuple[str, int, str]] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    statements_seen: int = 0
    _joins: SortedUnion = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._joins = SortedUnion(self.joins)

    def record(self, join: EquiJoin, program: str, index: int) -> None:
        self._joins.add(join)
        self.provenance.setdefault(join, []).append((program, index))

    def __repr__(self) -> str:
        return (
            f"ExtractionReport({len(self.joins)} joins from "
            f"{self.statements_seen} statements, {len(self.skipped)} skipped)"
        )


class EquiJoinExtractor:
    """Extracts the set ``Q`` from statements, programs or whole corpora."""

    def __init__(self, schema: Optional[DatabaseSchema] = None) -> None:
        self.schema = schema

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def extract_from_corpus(self, corpus: ProgramCorpus) -> ExtractionReport:
        report = ExtractionReport()
        for program in corpus:
            self._extract_program(program, report)
        return report

    def extract_from_program(self, program: ApplicationProgram) -> ExtractionReport:
        report = ExtractionReport()
        self._extract_program(program, report)
        return report

    def extract_from_sql(self, sql: str, program: str = "<inline>") -> List[EquiJoin]:
        report = ExtractionReport()
        self._extract_unit(SQLUnit(program, 0, sql), report)
        return report.joins

    # ------------------------------------------------------------------
    def _extract_program(self, program: ApplicationProgram, report: ExtractionReport) -> None:
        for unit in extract_sql_units(program):
            self._extract_unit(unit, report)

    def _extract_unit(self, unit: SQLUnit, report: ExtractionReport) -> None:
        report.statements_seen += 1
        try:
            statement = parse_sql(unit.text)
        except SQLError as exc:
            report.skipped.append((unit.program, unit.index, str(exc)))
            return
        for join in self.extract_from_statement(statement, report):
            report.record(join, unit.program, unit.index)

    def extract_from_statement(
        self, statement: ast.Statement, report: Optional[ExtractionReport] = None
    ) -> List[EquiJoin]:
        """All equi-joins in one statement (deduplicated, ordered)."""
        report = report if report is not None else ExtractionReport()
        joins: List[EquiJoin] = []
        if isinstance(statement, ast.Select):
            self._walk_select(statement, (), joins, report)
        elif isinstance(statement, ast.Intersect):
            self._walk_intersect(statement, joins, report)
        elif isinstance(statement, ast.Union):
            # a UNION is not itself a join, but each branch may contain some
            for query in statement.queries:
                self._walk_select(query, (), joins, report)
        elif isinstance(statement, (ast.Update, ast.Delete)):
            self._walk_dml(statement, joins, report)
        return sorted(set(joins), key=lambda j: j.sort_key())

    # ------------------------------------------------------------------
    # SELECT traversal
    # ------------------------------------------------------------------
    def _walk_select(
        self,
        select: ast.Select,
        outer: Scope,
        joins: List[EquiJoin],
        report: ExtractionReport,
    ) -> None:
        frame: Dict[str, str] = {}
        for ref in select.tables:
            frame[ref.binding] = ref.name
        for join in select.joins:
            frame[join.table.binding] = join.table.name
        scope: Scope = outer + (frame,)

        predicates: List[ast.Predicate] = []
        if select.where is not None:
            predicates.append(select.where)
        for join in select.joins:
            if join.condition is not None:
                predicates.append(join.condition)

        equalities: List[Tuple[ResolvedColumn, ResolvedColumn]] = []
        for pred in predicates:
            self._collect(pred, scope, equalities, joins, report)

        self._emit_grouped(equalities, joins)

    def _walk_dml(
        self,
        statement,
        joins: List[EquiJoin],
        report: ExtractionReport,
    ) -> None:
        """UPDATE/DELETE: the WHERE clause navigates like a SELECT's."""
        if statement.where is None:
            return
        scope: Scope = ({statement.table: statement.table},)
        equalities: List[Tuple[ResolvedColumn, ResolvedColumn]] = []
        self._collect(statement.where, scope, equalities, joins, report)
        self._emit_grouped(equalities, joins)

    def _walk_intersect(
        self, stmt: ast.Intersect, joins: List[EquiJoin], report: ExtractionReport
    ) -> None:
        """``SELECT a FROM R INTERSECT SELECT b FROM S`` joins R[a] with S[b]."""
        sides: List[Optional[Tuple[str, Tuple[str, ...]]]] = []
        for query in stmt.queries:
            self._walk_select(query, (), joins, report)
            sides.append(self._intersect_side(query, report))
        for i in range(len(sides) - 1):
            left, right = sides[i], sides[i + 1]
            if left is None or right is None:
                continue
            if len(left[1]) != len(right[1]):
                report.warnings.append(
                    "INTERSECT sides differ in arity; skipped"
                )
                continue
            if left[0] == right[0] and left[1] == right[1]:
                continue  # same projection both sides: no interrelation
            joins.append(EquiJoin(left[0], left[1], right[0], right[1]))

    def _intersect_side(
        self, query: ast.Select, report: ExtractionReport
    ) -> Optional[Tuple[str, Tuple[str, ...]]]:
        """Resolve one INTERSECT operand to (relation, attributes).

        Only single-relation projections of plain columns qualify; anything
        else cannot be read as a side of an equi-join.
        """
        frame: Dict[str, str] = {ref.binding: ref.name for ref in query.tables}
        for join in query.joins:
            frame[join.table.binding] = join.table.name
        scope: Scope = (frame,)
        resolved: List[ResolvedColumn] = []
        for item in query.items:
            if not isinstance(item, ast.ColumnRef):
                return None
            col = self._resolve(item, scope, report)
            if col is None:
                return None
            resolved.append(col)
        relations = {c.relation for c in resolved}
        bindings = {c.binding for c in resolved}
        if len(relations) != 1 or len(bindings) != 1:
            report.warnings.append(
                "INTERSECT side projects several relations; skipped"
            )
            return None
        return resolved[0].relation, tuple(c.attribute for c in resolved)

    # ------------------------------------------------------------------
    # predicate traversal
    # ------------------------------------------------------------------
    def _collect(
        self,
        pred: ast.Predicate,
        scope: Scope,
        equalities: List[Tuple[ResolvedColumn, ResolvedColumn]],
        joins: List[EquiJoin],
        report: ExtractionReport,
    ) -> None:
        if isinstance(pred, ast.And):
            for p in pred.operands:
                self._collect(p, scope, equalities, joins, report)
            return
        if isinstance(pred, ast.Or):
            # A join under OR is still navigation evidence; each branch is
            # collected independently (it cannot merge with conjunct
            # equalities into a multi-attribute join, so branches emit
            # directly).
            for p in pred.operands:
                branch: List[Tuple[ResolvedColumn, ResolvedColumn]] = []
                self._collect(p, scope, branch, joins, report)
                self._emit_grouped(branch, joins)
            return
        if isinstance(pred, ast.Not):
            # negated equality is not a join
            return
        if isinstance(pred, ast.Comparison):
            if pred.is_column_equality():
                left = self._resolve(pred.left, scope, report)   # type: ignore[arg-type]
                right = self._resolve(pred.right, scope, report)  # type: ignore[arg-type]
                if left is None or right is None:
                    return
                if left.binding == right.binding:
                    return  # intra-tuple comparison, not a join
                equalities.append((left, right))
            return
        if isinstance(pred, ast.InSubquery):
            if not pred.negated:
                self._subquery_join(pred.expr, pred.query, scope, joins, report)
            self._walk_select(pred.query, scope, joins, report)
            return
        if isinstance(pred, ast.CompareSubquery):
            if pred.op == "=":
                self._subquery_join(pred.expr, pred.query, scope, joins, report)
            self._walk_select(pred.query, scope, joins, report)
            return
        if isinstance(pred, ast.ExistsSubquery):
            # correlated equalities inside the subquery surface as joins
            # when the subquery is walked with the chained scope
            if not pred.negated:
                self._walk_select(pred.query, scope, joins, report)
            return
        # IsNull and other predicates carry no join information

    def _subquery_join(
        self,
        outer_expr: ast.Expr,
        query: ast.Select,
        scope: Scope,
        joins: List[EquiJoin],
        report: ExtractionReport,
    ) -> None:
        """``outer IN (SELECT inner FROM ...)`` joins outer with inner."""
        if not isinstance(outer_expr, ast.ColumnRef):
            return
        outer_col = self._resolve(outer_expr, scope, report)
        if outer_col is None:
            return
        if len(query.items) != 1 or not isinstance(query.items[0], ast.ColumnRef):
            return
        frame: Dict[str, str] = {ref.binding: ref.name for ref in query.tables}
        for join in query.joins:
            frame[join.table.binding] = join.table.name
        inner_scope: Scope = scope + (frame,)
        inner_col = self._resolve(query.items[0], inner_scope, report)
        if inner_col is None:
            return
        # same binding name AND same relation: the alias was not shadowed,
        # so this is a same-tuple reference, not a join.  A subquery alias
        # shadowing an outer one (same name, different relation) IS a join.
        if (
            inner_col.binding == outer_col.binding
            and inner_col.relation == outer_col.relation
        ):
            return
        joins.append(
            EquiJoin(
                outer_col.relation,
                (outer_col.attribute,),
                inner_col.relation,
                (inner_col.attribute,),
            )
        )

    # ------------------------------------------------------------------
    # column resolution
    # ------------------------------------------------------------------
    def _resolve(
        self, col: ast.ColumnRef, scope: Scope, report: ExtractionReport
    ) -> Optional[ResolvedColumn]:
        if col.qualifier is not None:
            for frame in reversed(scope):
                if col.qualifier in frame:
                    return ResolvedColumn(col.qualifier, frame[col.qualifier], col.name)
            report.warnings.append(f"unknown table or alias {col.qualifier!r}")
            return None
        # unqualified: need the schema to find the owning relation; search
        # innermost frame outward, taking the unique owner per frame
        if self.schema is None:
            report.warnings.append(
                f"cannot resolve unqualified column {col.name!r} without a schema"
            )
            return None
        for frame in reversed(scope):
            owners = [
                (binding, relation)
                for binding, relation in frame.items()
                if relation in self.schema
                and self.schema.relation(relation).has_attribute(col.name)
            ]
            if len(owners) == 1:
                binding, relation = owners[0]
                return ResolvedColumn(binding, relation, col.name)
            if len(owners) > 1:
                report.warnings.append(
                    f"ambiguous column {col.name!r} among {sorted(o[0] for o in owners)}"
                )
                return None
        report.warnings.append(f"column {col.name!r} not found in any scope")
        return None

    # ------------------------------------------------------------------
    @staticmethod
    def _emit_grouped(
        equalities: Sequence[Tuple[ResolvedColumn, ResolvedColumn]],
        joins: List[EquiJoin],
    ) -> None:
        """Merge equalities between the same binding pair into one join."""
        grouped: Dict[Tuple[str, str], List[Tuple[ResolvedColumn, ResolvedColumn]]] = {}
        for left, right in equalities:
            if (right.binding, left.binding) in grouped:
                grouped[(right.binding, left.binding)].append((right, left))
            else:
                grouped.setdefault((left.binding, right.binding), []).append((left, right))
        for pairs in grouped.values():
            lefts = tuple(dict.fromkeys(p[0].attribute for p in pairs))
            rights = tuple(dict.fromkeys(p[1].attribute for p in pairs))
            if len(lefts) != len(rights):
                # duplicate-attribute pathologies: fall back to unary joins
                for left, right in pairs:
                    joins.append(
                        EquiJoin(
                            left.relation, (left.attribute,),
                            right.relation, (right.attribute,),
                        )
                    )
                continue
            joins.append(
                EquiJoin(pairs[0][0].relation, lefts, pairs[0][1].relation, rights)
            )


def extract_equijoins(
    corpus: ProgramCorpus, schema: Optional[DatabaseSchema] = None
) -> ExtractionReport:
    """One-shot convenience: the set ``Q`` of *corpus* under *schema*."""
    return EquiJoinExtractor(schema).extract_from_corpus(corpus)
