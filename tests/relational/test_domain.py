"""NULL semantics and data-type membership."""

import datetime
import enum

import pytest

from repro.exceptions import TypingError
from repro.relational.domain import (
    BOOLEAN,
    DATE,
    DataType,
    INTEGER,
    NULL,
    NullType,
    REAL,
    TEXT,
    comparable,
    is_null,
    type_named,
    value_in_domain,
)


class TestNull:
    def test_null_is_singleton(self):
        assert NullType() is NULL
        assert NullType() is NullType()

    def test_is_null_accepts_none_and_sentinel(self):
        assert is_null(NULL)
        assert is_null(None)
        assert not is_null(0)
        assert not is_null("")
        assert not is_null(False)

    def test_null_has_no_truth_value(self):
        with pytest.raises(TypeError):
            bool(NULL)

    def test_null_is_hashable_and_self_equal(self):
        assert {NULL: 1}[NULL] == 1
        assert NULL == NULL
        assert not (NULL == 0)

    def test_null_repr(self):
        assert repr(NULL) == "NULL"


class TestDataTypes:
    def test_integer_membership(self):
        assert INTEGER.contains(3)
        assert not INTEGER.contains(3.5)
        assert not INTEGER.contains(True)   # bool is not an INTEGER
        assert not INTEGER.contains("3")

    def test_real_accepts_ints_and_floats(self):
        assert REAL.contains(3)
        assert REAL.contains(3.5)
        assert not REAL.contains(True)

    def test_text_membership(self):
        assert TEXT.contains("abc")
        assert not TEXT.contains(3)

    def test_date_accepts_iso_strings_and_dates(self):
        assert DATE.contains("2020-01-31")
        assert DATE.contains(datetime.date(2020, 1, 31))
        assert not DATE.contains("31/01/2020")
        assert not DATE.contains("2020-1-1")

    def test_boolean_membership(self):
        assert BOOLEAN.contains(True)
        assert not BOOLEAN.contains(1)

    def test_null_in_every_domain(self):
        for dtype in (INTEGER, REAL, TEXT, DATE, BOOLEAN):
            assert dtype.contains(NULL)
            assert value_in_domain(None, dtype)

    def test_coerce_normalizes_dates(self):
        assert DATE.coerce(datetime.date(2020, 1, 2)) == "2020-01-02"

    def test_coerce_rejects_foreign_values(self):
        with pytest.raises(TypingError):
            INTEGER.coerce("nope")

    def test_coerce_null_returns_sentinel(self):
        assert INTEGER.coerce(None) is NULL

    def test_equality_is_by_name(self):
        assert INTEGER == type_named("int")
        assert INTEGER != REAL
        assert hash(INTEGER) == hash(type_named("BIGINT"))


class TestCoerceEdges:
    """The exact-type fast path must not let any foreign value through."""

    def test_bool_is_not_an_integer(self):
        with pytest.raises(TypingError):
            INTEGER.coerce(True)

    def test_int_is_not_text(self):
        with pytest.raises(TypingError):
            TEXT.coerce(3)

    def test_int_subclass_goes_through_contains(self, monkeypatch):
        class Level(enum.IntEnum):
            LOW = 1

        checked = []
        contains = DataType.contains

        def spy(self, value):
            checked.append(value)
            return contains(self, value)

        monkeypatch.setattr(DataType, "contains", spy)
        assert INTEGER.coerce(5) == 5
        assert checked == []                    # exact int: fast path
        assert INTEGER.coerce(Level.LOW) is Level.LOW
        assert checked == [Level.LOW]           # subclass: membership test
        with pytest.raises(TypingError):
            BOOLEAN.coerce(Level.LOW)

    def test_real_widens_ints_to_float(self):
        coerced = REAL.coerce(3)
        assert coerced == 3.0 and type(coerced) is float
        assert type(REAL.coerce(2.5)) is float
        with pytest.raises(TypingError):
            REAL.coerce(True)

    def test_date_objects_still_become_iso_strings(self):
        assert DATE.coerce(datetime.date(2021, 3, 4)) == "2021-03-04"
        assert DATE.coerce("2021-03-04") == "2021-03-04"
        with pytest.raises(TypingError):
            DATE.coerce("04/03/2021")

    def test_exact_types_pass_unchanged(self):
        for dtype, value in ((INTEGER, 7), (REAL, 7.5), (TEXT, "x"), (BOOLEAN, False)):
            assert dtype.coerce(value) is value


class TestTypeNames:
    @pytest.mark.parametrize(
        "alias, expected",
        [
            ("INT", INTEGER), ("integer", INTEGER), ("SMALLINT", INTEGER),
            ("NUMBER", REAL), ("decimal", REAL), ("FLOAT", REAL),
            ("VARCHAR", TEXT), ("char", TEXT), ("VARCHAR2", TEXT),
            ("date", DATE), ("BOOL", BOOLEAN),
        ],
    )
    def test_sql_aliases(self, alias, expected):
        assert type_named(alias) == expected

    def test_unknown_type_raises(self):
        with pytest.raises(TypingError):
            type_named("BLOB")


class TestComparability:
    def test_numeric_types_interjoin(self):
        assert comparable(INTEGER, REAL)
        assert comparable(REAL, INTEGER)

    def test_text_only_with_itself(self):
        assert comparable(TEXT, TEXT)
        assert not comparable(TEXT, INTEGER)
        assert not comparable(DATE, TEXT)
