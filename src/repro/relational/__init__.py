"""In-memory relational engine: the substrate the DBRE method runs against.

This package provides everything the paper assumes a DBMS supplies:

- typed attributes with SQL-style NULL semantics (:mod:`repro.relational.domain`);
- relation schemas and a database schema (:mod:`repro.relational.schema`);
- tables (extensions) holding tuples (:mod:`repro.relational.table`);
- the constraints visible in a data dictionary — ``unique`` and
  ``not null`` — and the derived key constraints
  (:mod:`repro.relational.constraints`);
- the relational-algebra operations the algorithms use: projection,
  selection, equi-join, and ``count distinct``
  (:mod:`repro.relational.algebra`);
- a :class:`~repro.relational.database.Database` object bundling schema,
  extension and declared dependencies, with the paper's ``K`` and ``N``
  sets computed from the catalog.
"""

from repro.relational.domain import (
    NULL,
    NullType,
    DataType,
    INTEGER,
    REAL,
    TEXT,
    DATE,
    BOOLEAN,
    is_null,
    value_in_domain,
)
from repro.relational.attribute import Attribute, AttributeRef, AttributeSet
from repro.relational.schema import RelationSchema, DatabaseSchema
from repro.relational.table import Row, Scan, Table
from repro.relational.constraints import (
    UniqueConstraint,
    NotNullConstraint,
    KeyConstraint,
    key_attribute_sets,
    not_null_attributes,
)
from repro.relational.database import Database
from repro.relational.algebra import (
    project,
    distinct_values,
    count_distinct,
    equijoin_match_count,
    select_equal,
    natural_intersection,
)
from repro.relational.catalog import Catalog, CatalogEntry

__all__ = [
    "NULL",
    "NullType",
    "DataType",
    "INTEGER",
    "REAL",
    "TEXT",
    "DATE",
    "BOOLEAN",
    "is_null",
    "value_in_domain",
    "Attribute",
    "AttributeRef",
    "AttributeSet",
    "RelationSchema",
    "DatabaseSchema",
    "Row",
    "Scan",
    "Table",
    "UniqueConstraint",
    "NotNullConstraint",
    "KeyConstraint",
    "key_attribute_sets",
    "not_null_attributes",
    "Database",
    "project",
    "distinct_values",
    "count_distinct",
    "equijoin_match_count",
    "select_equal",
    "natural_intersection",
    "Catalog",
    "CatalogEntry",
]
