"""Property-based round-trips through the SQL layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.programs.equijoin import EquiJoin
from repro.sql.parser import parse_sql

identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s.upper()
    not in {
        "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "OR", "NOT", "IN",
        "EXISTS", "INTERSECT", "UNION", "ALL", "JOIN", "INNER", "LEFT",
        "RIGHT", "OUTER", "ON", "AS", "ORDER", "BY", "GROUP", "HAVING",
        "ASC", "DESC", "CREATE", "TABLE", "PRIMARY", "KEY", "UNIQUE",
        "NULL", "INSERT", "INTO", "VALUES", "COUNT", "MIN", "MAX", "SUM",
        "AVG", "IS", "BETWEEN", "LIKE", "DROP", "DELETE", "UPDATE", "SET",
    }
)


class TestFormatterRoundTrip:
    @given(identifiers, identifiers, identifiers, identifiers)
    @settings(max_examples=60)
    def test_projection_round_trip(self, table, alias, col1, col2):
        sql = f"SELECT {alias}.{col1}, {alias}.{col2} FROM {table} {alias}"
        stmt = parse_sql(sql)
        assert str(parse_sql(str(stmt))) == str(stmt)

    @given(st.integers(-1000, 1000), st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        max_size=12,
    ))
    @settings(max_examples=60)
    def test_literal_round_trip(self, number, text):
        sql = f"INSERT INTO t VALUES ({number}, '{text.replace(chr(39), chr(39)*2)}')"
        stmt = parse_sql(sql)
        restored = parse_sql(str(stmt))
        assert restored.rows == ((number, text),)


class TestEquiJoinCanonicalProperties:
    @given(identifiers, identifiers, identifiers, identifiers)
    @settings(max_examples=80)
    def test_symmetry(self, r1, a1, r2, a2):
        left = EquiJoin(r1, (a1,), r2, (a2,))
        right = EquiJoin(r2, (a2,), r1, (a1,))
        assert left == right
        assert hash(left) == hash(right)
        assert left.sort_key() == right.sort_key()

    @given(identifiers, identifiers, identifiers)
    @settings(max_examples=60)
    def test_repr_parses_back(self, r1, a1, a2):
        join = EquiJoin(r1, (a1,), r1 + "2", (a2,))
        assert EquiJoin.parse(repr(join)) == join
