"""Recursive-descent parser for the SQL subset.

Grammar (informal):

    script      := statement (';' statement)* [';']
    statement   := select_stmt | create | insert | drop
    select_stmt := select ('INTERSECT' select)*
    select      := 'SELECT' ['DISTINCT'] items 'FROM' tables join*
                   ['WHERE' predicate] ['ORDER' 'BY' order_items]
    items       := '*' | item (',' item)*
    item        := aggregate | column
    aggregate   := ('COUNT'|'MIN'|'MAX'|'SUM'|'AVG')
                   '(' ['DISTINCT'] ('*' | column (',' column)*) ')'
    tables      := table_ref (',' table_ref)*
    table_ref   := ident [['AS'] ident]
    join        := ['INNER'|'LEFT'|'RIGHT'] ['OUTER'] 'JOIN' table_ref
                   ['ON' predicate]
    predicate   := or_term
    or_term     := and_term ('OR' and_term)*
    and_term    := factor ('AND' factor)*
    factor      := 'NOT' factor | '(' predicate ')' | atom
    atom        := 'EXISTS' '(' select_stmt ')'
                 | operand 'IS' ['NOT'] 'NULL'
                 | operand ['NOT'] 'IN' '(' select_stmt ')'
                 | operand op (operand | '(' select_stmt ')')
    operand     := literal | column
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.exceptions import SQLParseError
from repro.sql import ast_nodes as ast
from repro.sql.lexer import tokenize
from repro.sql.tokens import (
    EOF,
    IDENT,
    NUMBER,
    OPERATOR,
    PUNCT,
    STRING,
    Token,
)

_AGGREGATES = ("COUNT", "MIN", "MAX", "SUM", "AVG")
_COMPARISON_OPS = ("=", "<>", "!=", "<", "<=", ">", ">=")


class Parser:
    """One-pass recursive-descent parser over a token list."""

    def __init__(self, text: str) -> None:
        self._tokens = tokenize(text)
        self._pos = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != EOF:
            self._pos += 1
        return tok

    def _error(self, message: str) -> SQLParseError:
        tok = self._peek()
        return SQLParseError(f"{message}, found {tok.value!r}", tok.line, tok.column)

    def _expect_keyword(self, *words: str) -> Token:
        tok = self._peek()
        if tok.is_keyword(*words):
            return self._next()
        raise self._error(f"expected {' or '.join(words)}")

    def _expect_punct(self, ch: str) -> Token:
        tok = self._peek()
        if tok.kind == PUNCT and tok.value == ch:
            return self._next()
        raise self._error(f"expected {ch!r}")

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind == IDENT:
            return self._next()
        raise self._error("expected identifier")

    def _accept_keyword(self, *words: str) -> Optional[Token]:
        if self._peek().is_keyword(*words):
            return self._next()
        return None

    def _accept_punct(self, ch: str) -> Optional[Token]:
        tok = self._peek()
        if tok.kind == PUNCT and tok.value == ch:
            return self._next()
        return None

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def parse_script(self) -> List[ast.Statement]:
        statements: List[ast.Statement] = []
        while self._peek().kind != EOF:
            statements.append(self.parse_statement())
            while self._accept_punct(";"):
                pass
        return statements

    def parse_statement(self) -> ast.Statement:
        tok = self._peek()
        if tok.is_keyword("SELECT"):
            return self.parse_select_statement()
        if tok.is_keyword("CREATE"):
            return self.parse_create_table()
        if tok.is_keyword("INSERT"):
            return self.parse_insert()
        if tok.is_keyword("DROP"):
            return self.parse_drop()
        if tok.is_keyword("UPDATE"):
            return self.parse_update()
        if tok.is_keyword("DELETE"):
            return self.parse_delete()
        raise self._error(
            "expected SELECT, CREATE, INSERT, UPDATE, DELETE or DROP"
        )

    # ------------------------------------------------------------------
    # SELECT (with INTERSECT chains)
    # ------------------------------------------------------------------
    def parse_select_statement(self) -> ast.Statement:
        first = self.parse_select()
        if self._peek().is_keyword("INTERSECT"):
            queries = [first]
            while self._accept_keyword("INTERSECT"):
                queries.append(self.parse_select())
            if self._peek().is_keyword("UNION"):
                raise self._error("mixing UNION and INTERSECT is not supported")
            return ast.Intersect(tuple(queries))
        if self._peek().is_keyword("UNION"):
            queries = [first]
            keep_all = False
            while self._accept_keyword("UNION"):
                keep_all = bool(self._accept_keyword("ALL")) or keep_all
                queries.append(self.parse_select())
            if self._peek().is_keyword("INTERSECT"):
                raise self._error("mixing UNION and INTERSECT is not supported")
            return ast.Union(tuple(queries), all=keep_all)
        return first

    def parse_select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        items = self._parse_select_items()
        self._expect_keyword("FROM")
        tables = [self._parse_table_ref()]
        while self._accept_punct(","):
            tables.append(self._parse_table_ref())
        joins: List[ast.Join] = []
        while True:
            join = self._parse_join_opt()
            if join is None:
                break
            joins.append(join)
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_predicate()
        group: List[ast.ColumnRef] = []
        having = None
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group.append(self._parse_column())
            while self._accept_punct(","):
                group.append(self._parse_column())
            if self._accept_keyword("HAVING"):
                having = self._parse_predicate()
        order: List[ast.OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order.append(self._parse_order_item())
            while self._accept_punct(","):
                order.append(self._parse_order_item())
        return ast.Select(
            items=tuple(items),
            tables=tuple(tables),
            joins=tuple(joins),
            where=where,
            distinct=distinct,
            order_by=tuple(order),
            group_by=tuple(group),
            having=having,
        )

    def _parse_select_items(self) -> List[ast.Expr]:
        if self._accept_punct("*"):
            return [ast.Star()]
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ast.Expr:
        tok = self._peek()
        if tok.is_keyword(*_AGGREGATES):
            return self._parse_aggregate()
        return self._parse_operand()

    def _parse_aggregate(self) -> ast.Aggregate:
        func = self._next().value
        self._expect_punct("(")
        distinct = bool(self._accept_keyword("DISTINCT"))
        if self._accept_punct("*"):
            argument: object = ast.Star()
        else:
            cols = [self._parse_column()]
            while self._accept_punct(","):
                cols.append(self._parse_column())
            argument = cols[0] if len(cols) == 1 else tuple(cols)
        self._expect_punct(")")
        return ast.Aggregate(func, argument, distinct)

    def _parse_table_ref(self) -> ast.TableRef:
        name = self._expect_ident().value
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident().value
        elif self._peek().kind == IDENT:
            alias = self._next().value
        return ast.TableRef(name, alias)

    def _parse_join_opt(self) -> Optional[ast.Join]:
        kind = "INNER"
        save = self._pos
        if self._accept_keyword("INNER"):
            kind = "INNER"
        elif self._accept_keyword("LEFT"):
            kind = "LEFT"
            self._accept_keyword("OUTER")
        elif self._accept_keyword("RIGHT"):
            kind = "RIGHT"
            self._accept_keyword("OUTER")
        if not self._accept_keyword("JOIN"):
            self._pos = save
            return None
        table = self._parse_table_ref()
        condition = None
        if self._accept_keyword("ON"):
            condition = self._parse_predicate()
        return ast.Join(table, condition, kind)

    def _parse_order_item(self) -> ast.OrderItem:
        col = self._parse_column()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(col, descending)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def _parse_predicate(self) -> ast.Predicate:
        return self._parse_or()

    def _parse_or(self) -> ast.Predicate:
        terms = [self._parse_and()]
        while self._accept_keyword("OR"):
            terms.append(self._parse_and())
        if len(terms) == 1:
            return terms[0]
        return ast.Or(tuple(terms))

    def _parse_and(self) -> ast.Predicate:
        terms = [self._parse_factor()]
        while self._accept_keyword("AND"):
            terms.append(self._parse_factor())
        if len(terms) == 1:
            return terms[0]
        # flatten nested ANDs for easy extractor traversal
        flat: List[ast.Predicate] = []
        for t in terms:
            if isinstance(t, ast.And):
                flat.extend(t.operands)
            else:
                flat.append(t)
        return ast.And(tuple(flat))

    def _parse_factor(self) -> ast.Predicate:
        if self._accept_keyword("NOT"):
            if self._peek().is_keyword("EXISTS"):
                exists = self._parse_exists()
                return ast.ExistsSubquery(exists.query, negated=True)
            return ast.Not(self._parse_factor())
        if self._peek().is_keyword("EXISTS"):
            return self._parse_exists()
        if self._peek().kind == PUNCT and self._peek().value == "(":
            # could be a parenthesized predicate — try it, backtrack if not
            save = self._pos
            self._next()
            try:
                inner = self._parse_predicate()
                self._expect_punct(")")
                return inner
            except SQLParseError:
                self._pos = save
        return self._parse_atom()

    def _parse_exists(self) -> ast.ExistsSubquery:
        self._expect_keyword("EXISTS")
        self._expect_punct("(")
        stmt = self.parse_select_statement()
        if not isinstance(stmt, ast.Select):
            raise self._error("set operations not allowed inside EXISTS")
        self._expect_punct(")")
        return ast.ExistsSubquery(stmt)

    def _parse_atom(self) -> ast.Predicate:
        left = self._parse_operand()
        tok = self._peek()
        if tok.is_keyword("IS"):
            self._next()
            negated = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated)
        negated_in = False
        if tok.is_keyword("NOT"):
            self._next()
            negated_in = True
            tok = self._peek()
        if tok.is_keyword("BETWEEN"):
            self._next()
            low = self._parse_operand()
            self._expect_keyword("AND")
            high = self._parse_operand()
            return ast.Between(left, low, high, negated_in)
        if tok.is_keyword("LIKE"):
            self._next()
            pattern_tok = self._peek()
            if pattern_tok.kind != STRING:
                raise self._error("LIKE needs a string pattern")
            self._next()
            return ast.Like(left, pattern_tok.value, negated_in)
        if tok.is_keyword("IN"):
            self._next()
            self._expect_punct("(")
            stmt = self.parse_select_statement()
            if not isinstance(stmt, ast.Select):
                raise self._error("set operations not allowed inside IN")
            self._expect_punct(")")
            return ast.InSubquery(left, stmt, negated_in)
        if negated_in:
            raise self._error("expected IN after NOT")
        if tok.kind == OPERATOR and tok.value in _COMPARISON_OPS:
            op = self._next().value
            if op == "!=":
                op = "<>"
            if self._peek().kind == PUNCT and self._peek().value == "(":
                self._next()
                stmt = self.parse_select_statement()
                if not isinstance(stmt, ast.Select):
                    raise self._error("set operations not allowed in scalar subqueries")
                self._expect_punct(")")
                return ast.CompareSubquery(left, op, stmt)
            right = self._parse_operand()
            return ast.Comparison(left, op, right)
        raise self._error("expected comparison, IN, IS or EXISTS")

    # ------------------------------------------------------------------
    # operands
    # ------------------------------------------------------------------
    def _parse_operand(self) -> ast.Expr:
        tok = self._peek()
        if tok.is_keyword(*_AGGREGATES):
            # aggregates appear as operands in HAVING clauses
            return self._parse_aggregate()
        if tok.kind == NUMBER:
            self._next()
            value: object = float(tok.value) if "." in tok.value else int(tok.value)
            return ast.Literal(value)
        if tok.kind == STRING:
            self._next()
            return ast.Literal(tok.value)
        if tok.is_keyword("NULL"):
            self._next()
            return ast.Literal(None)
        if tok.is_keyword("TRUE"):
            self._next()
            return ast.Literal(True)
        if tok.is_keyword("FALSE"):
            self._next()
            return ast.Literal(False)
        if tok.kind == IDENT:
            return self._parse_column()
        raise self._error("expected literal or column")

    def _parse_column(self) -> ast.ColumnRef:
        first = self._expect_ident().value
        if self._peek().kind == PUNCT and self._peek().value == ".":
            self._next()
            second = self._expect_ident().value
            return ast.ColumnRef(second, qualifier=first)
        return ast.ColumnRef(first)

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------
    def parse_create_table(self) -> ast.CreateTable:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        name = self._expect_ident().value
        self._expect_punct("(")
        columns: List[ast.ColumnDef] = []
        constraints: List[Union[ast.TableConstraint, ast.ForeignKey]] = []
        while True:
            tok = self._peek()
            if tok.is_keyword("UNIQUE", "PRIMARY"):
                constraints.append(self._parse_table_constraint())
            elif self._at_foreign_key():
                constraints.append(self._parse_foreign_key())
            else:
                columns.append(self._parse_column_def())
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        if not columns:
            raise self._error("CREATE TABLE needs at least one column")
        return ast.CreateTable(name, tuple(columns), tuple(constraints))

    def _parse_table_constraint(self) -> ast.TableConstraint:
        tok = self._next()
        if tok.value == "PRIMARY":
            self._expect_keyword("KEY")
            kind = "PRIMARY KEY"
        else:
            kind = "UNIQUE"
        return ast.TableConstraint(kind, self._parse_column_list())

    def _at_foreign_key(self) -> bool:
        # FOREIGN and REFERENCES are no keywords, so a column may still
        # be called ``foreign``; a keyword is never a column type, so
        # ``FOREIGN KEY`` cannot start a column definition
        tok = self._peek()
        return (
            tok.kind == IDENT and tok.value.upper() == "FOREIGN"
            and self._peek(1).is_keyword("KEY")
        )

    def _parse_foreign_key(self) -> ast.ForeignKey:
        self._next()
        self._expect_keyword("KEY")
        columns = self._parse_column_list()
        tok = self._peek()
        if tok.kind != IDENT or tok.value.upper() != "REFERENCES":
            raise self._error("expected REFERENCES")
        self._next()
        table = self._expect_ident().value
        return ast.ForeignKey(columns, table, self._parse_column_list())

    def _parse_column_list(self) -> Tuple[str, ...]:
        self._expect_punct("(")
        cols = [self._expect_ident().value]
        while self._accept_punct(","):
            cols.append(self._expect_ident().value)
        self._expect_punct(")")
        return tuple(cols)

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._expect_ident().value
        type_tok = self._peek()
        if type_tok.kind != IDENT:
            raise self._error("expected column type")
        type_name = self._next().value
        # optional (n) / (p, s) size suffix — parsed and discarded
        if self._accept_punct("("):
            while self._peek().kind == NUMBER or (
                self._peek().kind == PUNCT and self._peek().value == ","
            ):
                self._next()
            self._expect_punct(")")
        not_null = unique = primary = False
        while True:
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                not_null = True
            elif self._accept_keyword("UNIQUE"):
                unique = True
            elif self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary = True
            else:
                break
        return ast.ColumnDef(name, type_name, not_null, unique, primary)

    def parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident().value
        columns: Tuple[str, ...] = ()
        if self._accept_punct("("):
            cols = [self._expect_ident().value]
            while self._accept_punct(","):
                cols.append(self._expect_ident().value)
            self._expect_punct(")")
            columns = tuple(cols)
        self._expect_keyword("VALUES")
        rows: List[Tuple[object, ...]] = []
        while True:
            self._expect_punct("(")
            values: List[object] = []
            while True:
                operand = self._parse_operand()
                if not isinstance(operand, ast.Literal):
                    raise self._error("INSERT values must be literals")
                values.append(operand.value)
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
            rows.append(tuple(values))
            if not self._accept_punct(","):
                break
        return ast.Insert(table, columns, tuple(rows))

    def parse_drop(self) -> ast.DropTable:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        return ast.DropTable(self._expect_ident().value)

    def parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_ident().value
        self._expect_keyword("SET")
        assignments: List[ast.Assignment] = []
        while True:
            column = self._expect_ident().value
            tok = self._peek()
            if tok.kind != OPERATOR or tok.value != "=":
                raise self._error("expected = in SET clause")
            self._next()
            value = self._parse_operand()
            if not isinstance(value, ast.Literal):
                raise self._error("SET values must be literals")
            assignments.append(ast.Assignment(column, value))
            if not self._accept_punct(","):
                break
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_predicate()
        return ast.Update(table, tuple(assignments), where)

    def parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_ident().value
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_predicate()
        return ast.Delete(table, where)


def parse_sql(text: str) -> ast.Statement:
    """Parse exactly one statement (trailing semicolon allowed)."""
    parser = Parser(text)
    statements = parser.parse_script()
    if len(statements) != 1:
        raise SQLParseError(f"expected one statement, found {len(statements)}")
    return statements[0]


def parse_statements(text: str) -> List[ast.Statement]:
    """Parse a script of semicolon-separated statements."""
    return Parser(text).parse_script()
