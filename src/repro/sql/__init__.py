"""A from-scratch SQL subset: lexer, parser, AST and the script loader.

The reverse-engineering method needs SQL twice:

1. to *read application programs* — the equi-join extractor
   (:mod:`repro.programs`) works on the ASTs produced here; and
2. to *load a legacy database* from a script — :func:`load_sql_script`
   applies its ``CREATE TABLE`` and ``INSERT`` statements.  The method's
   counting queries are backend primitives, not SQL text.

The dialect covers what legacy data-manipulation code in the paper's
setting uses: ``CREATE TABLE`` with ``UNIQUE`` / ``NOT NULL`` /
``PRIMARY KEY`` / ``FOREIGN KEY``, ``INSERT ... VALUES``, ``UPDATE``,
``DELETE``, and ``SELECT`` with multi-table ``FROM``, ``JOIN ... ON``,
``WHERE`` conjunctions, ``IN`` / ``=`` / ``EXISTS`` subqueries,
``UNION`` / ``INTERSECT``, ``COUNT(DISTINCT ...)`` and ``ORDER BY``.
Every node prints back as SQL (``str()``).
"""

from repro.sql.lexer import Lexer, tokenize
from repro.sql.parser import Parser, parse_sql, parse_statements
from repro.sql.script import load_sql_script
from repro.sql import ast_nodes as ast

__all__ = [
    "Lexer",
    "tokenize",
    "Parser",
    "parse_sql",
    "parse_statements",
    "load_sql_script",
    "ast",
]
