"""SQL column types with MySQL-style fixed-width storage.

Unlike the NoSQL engine's varint-packed cells, the relational engine
stores numbers at their declared width (``INT`` = 4 bytes, ``BIGINT`` =
8) and strings with a length prefix — matching how InnoDB row formats
behave and driving the size gap the paper reports between the MySQL and
Cassandra schemas (Table 4).
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.sqldb.errors import ProgrammingError
from repro.storage.encoding import decode_text, encode_text, text_span

_INT4 = struct.Struct("<i")
_INT8 = struct.Struct("<q")
_FLOAT8 = struct.Struct("<d")


class SQLType:
    name = "?"
    #: Stored bytes of every value, or None for a length-prefixed type.
    width: Optional[int] = None

    def validate(self, value) -> None:
        raise NotImplementedError

    def encode(self, value) -> bytes:
        raise NotImplementedError

    def decode(self, buffer, offset: int) -> Tuple[object, int]:
        raise NotImplementedError

    def span(self, buffer, offset: int) -> int:
        """End offset of the value encoded at ``offset``: exactly
        ``decode(buffer, offset)[1]``, found without building the value
        (a column read steps over the columns stored before its own)."""
        return offset + self.width

    def __eq__(self, other) -> bool:
        return isinstance(other, SQLType) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"<sql {self.name}>"


class IntType(SQLType):
    name = "int"
    width = 4
    _range = (-(2 ** 31), 2 ** 31 - 1)

    def validate(self, value) -> None:
        """Raises ProgrammingError for non-integers or out-of-range values."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProgrammingError(f"expected {self.name.upper()}, got {value!r}")
        lo, hi = self._range
        if not lo <= value <= hi:
            raise ProgrammingError(f"{value} out of range for {self.name.upper()}")

    def encode(self, value) -> bytes:
        return _INT4.pack(value)

    def decode(self, buffer, offset: int):
        return _INT4.unpack_from(buffer, offset)[0], offset + 4


class BigIntType(IntType):
    name = "bigint"
    width = 8
    _range = (-(2 ** 63), 2 ** 63 - 1)

    def encode(self, value) -> bytes:
        return _INT8.pack(value)

    def decode(self, buffer, offset: int):
        return _INT8.unpack_from(buffer, offset)[0], offset + 8


class BooleanType(SQLType):
    """MySQL's BOOL/TINYINT(1)."""

    name = "boolean"
    width = 1

    def validate(self, value) -> None:
        """Raises ProgrammingError for values that are not bool/int."""
        if not isinstance(value, (bool, int)):
            raise ProgrammingError(f"expected BOOLEAN, got {value!r}")

    def encode(self, value) -> bytes:
        return b"\x01" if value else b"\x00"

    def decode(self, buffer, offset: int):
        return buffer[offset] != 0, offset + 1


class VarCharType(SQLType):
    def __init__(self, max_length: int = 255) -> None:
        self.max_length = max_length
        self.name = f"varchar({max_length})"

    def validate(self, value) -> None:
        """Raises ProgrammingError for non-strings or over-length values."""
        if not isinstance(value, str):
            raise ProgrammingError(f"expected VARCHAR, got {value!r}")
        if len(value) > self.max_length:
            raise ProgrammingError(
                f"value of length {len(value)} exceeds VARCHAR({self.max_length})"
            )

    def encode(self, value) -> bytes:
        return encode_text(value)

    def decode(self, buffer, offset: int):
        return decode_text(buffer, offset)

    span = staticmethod(text_span)


class TextType(VarCharType):
    def __init__(self) -> None:
        super().__init__(max_length=65535)
        self.name = "text"


class DoubleType(SQLType):
    name = "double"
    width = 8

    def validate(self, value) -> None:
        """Raises ProgrammingError for values that are not int/float."""
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProgrammingError(f"expected DOUBLE, got {value!r}")

    def encode(self, value) -> bytes:
        return _FLOAT8.pack(float(value))

    def decode(self, buffer, offset: int):
        return _FLOAT8.unpack_from(buffer, offset)[0], offset + 8


def parse_type(spec: str) -> SQLType:
    """Resolve a type expression like ``INT`` or ``VARCHAR(64)``.

    Raises ProgrammingError for unknown type names or bad VARCHAR widths.
    """
    text = spec.strip().lower()
    if text in ("int", "integer"):
        return IntType()
    if text == "bigint":
        return BigIntType()
    if text in ("boolean", "bool", "tinyint(1)", "tinyint"):
        return BooleanType()
    if text == "text":
        return TextType()
    if text in ("double", "float", "real"):
        return DoubleType()
    if text.startswith("varchar(") and text.endswith(")"):
        try:
            width = int(text[8:-1])
        except ValueError:
            raise ProgrammingError(f"bad VARCHAR width in {spec!r}") from None
        return VarCharType(width)
    if text == "varchar":
        return VarCharType()
    raise ProgrammingError(f"unknown SQL type {spec!r}")
