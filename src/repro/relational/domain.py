"""Value domains and SQL-style NULL semantics.

The paper's method constantly asks the extension questions such as
``select count distinct X from R`` and inclusion tests between projections.
Those questions only behave like a real DBMS if NULL is handled the SQL
way: NULL never equals anything (including NULL), is skipped by
``count distinct``, and disqualifies a tuple from participating in an
equi-join.  This module defines the NULL sentinel and the small fixed set
of data types the engine supports.
"""

from __future__ import annotations

import datetime
import re
from typing import Any, Iterable

from repro.exceptions import TypingError


class NullType:
    """Singleton sentinel for SQL NULL.

    A dedicated type (instead of Python ``None``) keeps NULL visible in
    reprs and prevents accidental truthiness bugs: ``bool(NULL)`` raises,
    because code should always test ``is_null(v)`` explicitly.
    """

    _instance: "NullType" = None  # type: ignore[assignment]

    def __new__(cls) -> "NullType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        raise TypeError("NULL has no truth value; use is_null(value)")

    def __eq__(self, other: object) -> bool:
        # Identity comparison only; NULL == NULL is *not* SQL-true, but at
        # the Python level the sentinel must be hashable and self-equal so
        # it can live in dicts and sets.  SQL three-valued logic is applied
        # by the algebra layer, which filters NULLs out before comparing.
        return other is self

    def __hash__(self) -> int:
        return 0x5E11


NULL = NullType()


def is_null(value: Any) -> bool:
    """True when *value* is the SQL NULL sentinel (or Python None)."""
    return value is NULL or value is None


#: the two spellings :func:`is_null` accepts
_NULLS = frozenset((NULL, None))


def has_null(values: Iterable[Any]) -> bool:
    """True when any of *values* is NULL (or None), by one set probe each."""
    return not _NULLS.isdisjoint(values)


_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

#: domain name → the Python type its values are stored as; DATE has none
#: (it accepts ``datetime.date`` and ISO strings alike)
_EXACT_TYPES = {"INTEGER": int, "REAL": float, "TEXT": str, "BOOLEAN": bool}


class DataType:
    """A named scalar domain with a membership test.

    Instances are compared by name, so the module-level constants act as
    an enumeration: :data:`INTEGER`, :data:`REAL`, :data:`TEXT`,
    :data:`DATE`, :data:`BOOLEAN`.
    """

    __slots__ = ("name", "_exact", "_zero")

    def __init__(self, name: str) -> None:
        self.name = name
        #: the one Python type this domain stores as-is; a value of
        #: exactly this type (not a subclass) needs no membership test
        self._exact = _EXACT_TYPES.get(name)
        #: that type's zero; ``value or self._zero`` turns REAL ``-0.0``
        #: into ``0.0`` and returns every other value as it is
        self._zero = self._exact() if self._exact is not None else None

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DataType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("DataType", self.name))

    def contains(self, value: Any) -> bool:
        """Membership test; NULL belongs to every domain."""
        if is_null(value):
            return True
        if self.name == "INTEGER":
            return isinstance(value, int) and not isinstance(value, bool)
        if self.name == "REAL":
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self.name == "TEXT":
            return isinstance(value, str)
        if self.name == "DATE":
            if isinstance(value, datetime.date):
                return True
            return isinstance(value, str) and bool(_DATE_RE.match(value))
        if self.name == "BOOLEAN":
            return isinstance(value, bool)
        return False

    def coerce(self, value: Any) -> Any:
        """Return *value* normalized into this domain, or raise TypingError.

        Ints widen to REAL (as floats, the way SQLite stores them); a
        float NaN becomes NULL and ``-0.0`` becomes ``0.0``, which is what
        SQLite stores for them; ISO strings are accepted for DATE;
        everything else must already belong to the domain.  A value whose
        type is exactly the one the domain stores (``int`` for INTEGER,
        ``float`` for REAL, ``str`` for TEXT, ``bool`` for BOOLEAN) is
        returned without further checks, bar the NaN test (``value ==
        value`` is false only for NaN) and the zero's sign.
        """
        if type(value) is self._exact:
            return (value or self._zero) if value == value else NULL
        if is_null(value):
            return NULL
        if self.contains(value):
            if self.name == "DATE" and isinstance(value, datetime.date):
                return value.isoformat()
            if self.name == "REAL":
                value = float(value)
                return (value or 0.0) if value == value else NULL
            return value
        raise TypingError(f"value {value!r} is not in domain {self.name}")


INTEGER = DataType("INTEGER")
REAL = DataType("REAL")
TEXT = DataType("TEXT")
DATE = DataType("DATE")
BOOLEAN = DataType("BOOLEAN")

_BY_NAME = {t.name: t for t in (INTEGER, REAL, TEXT, DATE, BOOLEAN)}

_SQL_TYPE_ALIASES = {
    "INT": "INTEGER",
    "INTEGER": "INTEGER",
    "SMALLINT": "INTEGER",
    "BIGINT": "INTEGER",
    "NUMBER": "REAL",
    "NUMERIC": "REAL",
    "DECIMAL": "REAL",
    "FLOAT": "REAL",
    "REAL": "REAL",
    "DOUBLE": "REAL",
    "CHAR": "TEXT",
    "VARCHAR": "TEXT",
    "VARCHAR2": "TEXT",
    "TEXT": "TEXT",
    "STRING": "TEXT",
    "DATE": "DATE",
    "BOOLEAN": "BOOLEAN",
    "BOOL": "BOOLEAN",
}


def type_named(name: str) -> DataType:
    """Resolve a type name (or common SQL alias) to a :class:`DataType`."""
    key = name.upper()
    if key in _SQL_TYPE_ALIASES:
        return _BY_NAME[_SQL_TYPE_ALIASES[key]]
    raise TypingError(f"unknown data type: {name!r}")


def value_in_domain(value: Any, dtype: DataType) -> bool:
    """Convenience wrapper over :meth:`DataType.contains`."""
    return dtype.contains(value)


def comparable(a: DataType, b: DataType) -> bool:
    """True when values of the two domains can meaningfully be equi-joined.

    INTEGER and REAL are mutually comparable; everything else only with
    itself.  The exhaustive-IND baseline uses this to prune candidates the
    way unary IND discovery tools do.
    """
    if a == b:
        return True
    numeric = {INTEGER, REAL}
    return a in numeric and b in numeric
