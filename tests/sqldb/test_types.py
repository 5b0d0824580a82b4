"""SQL type system."""

import pytest

from repro.sqldb.errors import ProgrammingError
from repro.sqldb.types import (
    BigIntType,
    BooleanType,
    DoubleType,
    IntType,
    TextType,
    VarCharType,
    parse_type,
)


class TestIntTypes:
    def test_round_trip(self):
        t = IntType()
        assert t.decode(t.encode(-42), 0)[0] == -42

    def test_fixed_width(self):
        assert len(IntType().encode(1)) == 4
        assert len(BigIntType().encode(1)) == 8

    def test_rejects_bool(self):
        with pytest.raises(ProgrammingError):
            IntType().validate(True)


class TestVarChar:
    def test_round_trip(self):
        t = VarCharType(16)
        assert t.decode(t.encode("Fenian"), 0)[0] == "Fenian"

    def test_length_enforced(self):
        with pytest.raises(ProgrammingError, match="exceeds"):
            VarCharType(4).validate("abcde")

    def test_text_is_wide_varchar(self):
        TextType().validate("x" * 10_000)

    def test_a_lone_surrogate_is_refused_with_the_engine_error(self):
        for sql_type in (VarCharType(8), TextType()):
            with pytest.raises(ProgrammingError, match="not valid UTF-8"):
                sql_type.encode("\ud800")


class TestBoolean:
    def test_round_trip(self):
        t = BooleanType()
        assert t.decode(t.encode(True), 0)[0] is True

    def test_accepts_int_like_mysql_tinyint(self):
        BooleanType().validate(1)


class TestDouble:
    def test_round_trip(self):
        t = DoubleType()
        assert t.decode(t.encode(1.5), 0)[0] == 1.5


@pytest.mark.parametrize("sql_type, good, bad", [
    (IntType(), [1, None, 2 ** 31 - 1], 2 ** 31),
    (BigIntType(), [-(2 ** 63), 5], True),
    (BooleanType(), [True, 0, None], "t"),
    (VarCharType(3), ["ab", "ab", None, "abc"], "abcd"),
    (DoubleType(), [0.5, 3, None], "x"),
    (VarCharType(3), ["ab", None], "\ud800"),  # a lone surrogate UTF-8 cannot encode
    (TextType(), ["x"], "a\udc00"),
])
def test_encode_column_stops_at_the_first_bad_value(sql_type, good, bad):
    """Cells are each value's own encoding (NULL stores nothing), up to
    the first value :meth:`validate` refuses, and that refusal."""
    cells = [b"" if value is None else sql_type.encode(value) for value in good]
    assert sql_type.encode_column(good) == (cells, None)
    encoded, error = sql_type.encode_column(good + [bad] + good)
    assert encoded == cells and isinstance(error, ProgrammingError)


class TestParseType:
    @pytest.mark.parametrize(
        "spec,name",
        [
            ("INT", "int"),
            ("integer", "int"),
            ("BIGINT", "bigint"),
            ("BOOLEAN", "boolean"),
            ("BOOL", "boolean"),
            ("tinyint(1)", "boolean"),
            ("TEXT", "text"),
            ("DOUBLE", "double"),
            ("VARCHAR(64)", "varchar(64)"),
        ],
    )
    def test_specs(self, spec, name):
        assert parse_type(spec).name == name

    def test_bad_varchar_width(self):
        with pytest.raises(ProgrammingError):
            parse_type("varchar(abc)")

    def test_unknown(self):
        with pytest.raises(ProgrammingError):
            parse_type("JSONB")


@pytest.mark.parametrize("sql_type, value", [
    (IntType(), -2 ** 31),
    (BigIntType(), 2 ** 63 - 1),
    (BooleanType(), True),
    (DoubleType(), -0.25),
    *((TextType(), "a" * n) for n in (0, 63, 64, 8191, 8192)),
    (VarCharType(9000), "é" * 4096),
])
def test_span_ends_where_decode_ends(sql_type, value):
    # A column read steps over the values stored before it with span.
    buffer = b"\x07" + sql_type.encode(value) + b"\x09"
    assert sql_type.span(buffer, 1) == sql_type.decode(buffer, 1)[1] == len(buffer) - 1
