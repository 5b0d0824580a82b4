"""SQL column types with MySQL-style fixed-width storage.

Unlike the NoSQL engine's varint-packed cells, the relational engine
stores integers at their declared width (``INT`` = 4 bytes, ``BIGINT`` =
8) and strings with a length prefix — matching how InnoDB row formats
behave and driving the size gap the paper reports between the MySQL and
Cassandra schemas (Table 4).  Which values each type takes is the
shared value domain of :mod:`repro.storage.values`.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.sqldb.errors import ProgrammingError
from repro.storage.values import Boolean, Double, Integer, Text, ValueType

_INT4 = struct.Struct("<i")
_INT8 = struct.Struct("<q")


class SQLType(ValueType):
    """A value domain stored in a row image: a NULL stores nothing."""

    error = ProgrammingError
    null = b""
    #: The ``struct`` code of a fixed-width value, None for a
    #: variable-width one: how a page decode unpacks it.
    code: Optional[str] = None

    @property
    def label(self) -> str:
        return self.name.upper()

    def __repr__(self) -> str:
        return f"<sql {self.name}>"


class IntType(SQLType, Integer):
    name = "int"
    width = 4
    code = "i"
    encode = staticmethod(_INT4.pack)

    def decode(self, buffer, offset: int):
        return _INT4.unpack_from(buffer, offset)[0], offset + 4


class BigIntType(IntType):
    name = "bigint"
    width = 8
    code = "q"
    bits = 64
    encode = staticmethod(_INT8.pack)

    def decode(self, buffer, offset: int):
        return _INT8.unpack_from(buffer, offset)[0], offset + 8


class BooleanType(SQLType, Boolean):
    """MySQL's BOOL/TINYINT(1): an int is taken too."""

    code = "?"
    value_types = frozenset((bool, int))


class VarCharType(SQLType, Text):
    def __init__(self, max_length: int = 255) -> None:
        self.max_length = max_length
        self.name = f"varchar({max_length})"


class TextType(VarCharType):
    def __init__(self) -> None:
        super().__init__(max_length=65535)
        self.name = "text"


class DoubleType(SQLType, Double):
    code = "d"


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
