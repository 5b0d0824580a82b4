"""Syntax-error parity: both parsers report through one shared helper.

:func:`repro.query.syntax_error_message` renders every SQL and CQL
parse/tokenise failure as ``<message> at line L column C (near 'tok')``
— so the two dialects produce byte-identical diagnostics for the same
mistake, and line/column arithmetic lives in exactly one place.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.nosqldb.cql.parser import parse as parse_cql
from repro.nosqldb.errors import CQLSyntaxError
from repro.query import line_and_column, syntax_error_message
from repro.query.syntax import Explain, Select, Statement
from repro.sqldb.errors import SQLSyntaxError
from repro.sqldb.sql.parser import parse as parse_sql


def failure_message(parse, error_type, text):
    with pytest.raises(error_type) as excinfo:
        parse(text)
    return str(excinfo.value)


class TestHelper:
    def test_line_and_column_are_one_based(self):
        assert line_and_column("SELECT", 0) == (1, 1)
        assert line_and_column("a\nbcd", 2) == (2, 1)
        assert line_and_column("a\nbcd", 4) == (2, 3)

    def test_offset_clamped_to_text(self):
        assert line_and_column("ab", 99) == (1, 3)

    def test_message_with_token(self):
        message = syntax_error_message("expected FROM", "SELECT x WHERE", 9, "WHERE")
        assert message == "expected FROM at line 1 column 10 (near 'WHERE')"

    def test_message_at_end_of_input(self):
        message = syntax_error_message("expected FROM", "SELECT x", 8)
        assert message == "expected FROM at line 1 column 9 (at end of input)"


class TestDialectParity:
    CASES = [
        "SELECT FROM",                 # missing projection
        "SELECT * FROM",               # missing table name
        "SELECT *\nFROM t WHERE",      # truncated on line 2
        "SELECT * FROM t WHERE id %",  # untokenisable character
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_same_position_both_dialects(self, text):
        sql = failure_message(parse_sql, SQLSyntaxError, text)
        cql = failure_message(parse_cql, CQLSyntaxError, text)
        # Identical wording apart from the dialect name in tokenise errors.
        assert sql.replace("SQL", "CQL") == cql

    def test_format_pins_line_and_column(self):
        message = failure_message(parse_sql, SQLSyntaxError, "SELECT *\nFROM t WHERE")
        assert message == "expected an identifier at line 2 column 13 (at end of input)"

    def test_tokenise_error_names_offender(self):
        sql = failure_message(parse_sql, SQLSyntaxError, "SELECT * FROM t %")
        assert sql == "cannot tokenise SQL at line 1 column 17 (near '%')"
        cql = failure_message(parse_cql, CQLSyntaxError, "SELECT * FROM t %")
        assert cql == "cannot tokenise CQL at line 1 column 17 (near '%')"

    @pytest.mark.parametrize("count", ["2.5", "1e3", "-3"])
    def test_limit_takes_a_non_negative_integer(self, count):
        text = f"SELECT * FROM t LIMIT {count}"
        sql = failure_message(parse_sql, SQLSyntaxError, text)
        cql = failure_message(parse_cql, CQLSyntaxError, text)
        assert sql == cql == (
            f"LIMIT takes a non-negative integer at line 1 column 23 (near {count!r})"
        )

    def test_limit_zero_stays_valid(self):
        assert parse_sql("SELECT * FROM t LIMIT 0").limit == 0
        assert parse_cql("SELECT * FROM t LIMIT 0").limit == 0


# ----------------------------------------------------------------------
# parsers raise only their own error
# ----------------------------------------------------------------------
#: Keywords, operators and literals of both dialects, plus comments and
#: characters neither tokenizer accepts.
_KEYWORDS = (
    "SELECT FROM WHERE AND IN IS NOT NULL TRUE FALSE ORDER BY ASC DESC LIMIT "
    "INSERT INTO VALUES UPDATE SET DELETE TRUNCATE TABLE USE DROP CREATE "
    "DATABASE SCHEMA KEYSPACE COLUMNFAMILY INDEX ON IF EXISTS PRIMARY KEY "
    "EXPLAIN ANALYZE JOIN INNER AS GROUP COUNT SUM MIN MAX AVG VARCHAR INT "
    "ENGINE BEGIN BATCH APPLY ALLOW FILTERING WITH COMPRESSION DURABLE_WRITES "
    "set int text t u id x"
).split()
_OPERATORS = "<= >= <> != ( ) , . = < > * ? ; { } [ ] :".split()
_LITERALS = [
    "0", "7", "-3", "2.5", "1e3", "'s'", "'it''s'", '"d"', "`q t`",
    "-- c\n", "# c\n", "/* c */", "// c\n", "%", "$",
]
_TOKEN = st.sampled_from(_KEYWORDS + _OPERATORS + _LITERALS)
_STARTERS = st.sampled_from(
    ["SELECT * FROM t", "SELECT id FROM t WHERE", "INSERT INTO t", "UPDATE t SET",
     "DELETE FROM t", "CREATE TABLE t (", "BEGIN BATCH", "EXPLAIN SELECT", ""]
)
_TEXT = st.builds(
    lambda start, tokens: " ".join([start] + tokens),
    _STARTERS, st.lists(_TOKEN, max_size=12),
)


@pytest.mark.parametrize(
    "parse, error", [(parse_sql, SQLSyntaxError), (parse_cql, CQLSyntaxError)], ids=["sql", "cql"]
)
@settings(max_examples=300, deadline=None)
@given(text=_TEXT)
@example(text="SELECT * FROM t LIMIT 2.5")
@example(text="SELECT * FROM t LIMIT 1e3")
@example(text="SELECT * FROM t LIMIT -3")
def test_parsers_raise_only_their_own_error(parse, error, text):
    try:
        statement = parse(text)
    except error:
        return
    assert isinstance(statement, Statement)
    select = statement.select if isinstance(statement, Explain) else statement
    if isinstance(select, Select):
        assert select.limit is None or select.limit >= 0
