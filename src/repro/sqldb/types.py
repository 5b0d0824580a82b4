"""SQL column types with MySQL-style fixed-width storage.

Unlike the NoSQL engine's varint-packed cells, the relational engine
stores numbers at their declared width (``INT`` = 4 bytes, ``BIGINT`` =
8) and strings with a length prefix — matching how InnoDB row formats
behave and driving the size gap the paper reports between the MySQL and
Cassandra schemas (Table 4).
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.sqldb.errors import ProgrammingError
from repro.storage.encoding import decode_text, encode_text, text_span

_INT4 = struct.Struct("<i")
_INT8 = struct.Struct("<q")
_FLOAT8 = struct.Struct("<d")


class SQLType:
    name = "?"
    #: Stored bytes of every value, or None for a length-prefixed type.
    width: Optional[int] = None
    #: Value types :meth:`encode_valid` checks as a whole column.
    column_types: frozenset = frozenset()

    def validate(self, value) -> None:
        raise NotImplementedError

    def encode(self, value) -> bytes:
        raise NotImplementedError

    def encode_column(self, values: Sequence) -> Tuple[List[bytes], Optional[Exception]]:
        """:meth:`validate` then :meth:`encode` of each of ``values``, a
        None (NULL, which stores nothing) as ``b""``: one column of a
        bulk write, its type resolved once.  Returns the cells before the
        first value that fails and that value's error, None when every
        value encoded.

        When every present value is of :attr:`column_types`, one check
        over them all (:meth:`encode_valid`) stands in for validating
        each.
        """
        present = values if None not in values else [v for v in values if v is not None]
        if set(map(type, present)) <= self.column_types:
            cells = self.encode_valid(values, present)
            if cells is not None:
                return cells, None
        validate, encode = self.validate, self.encode
        cells = []
        for value in values:
            if value is None:
                cells.append(b"")
                continue
            try:
                validate(value)
                cells.append(encode(value))
            except (ProgrammingError, ValueError) as error:
                return cells, error
        return cells, None

    def encode_valid(self, values: Sequence, present: Sequence) -> Optional[List[bytes]]:
        """The cells of ``values``, whose non-None values ``present`` are
        all of :attr:`column_types`; None when one of them is invalid."""
        encode = self.encode
        if present is values:
            return list(map(encode, values))
        return [b"" if value is None else encode(value) for value in values]

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
    column_types = frozenset((int,))
    _range = (-(2 ** 31), 2 ** 31 - 1)

    def validate(self, value) -> None:
        """Raises ProgrammingError for non-integers or out-of-range values."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProgrammingError(f"expected {self.name.upper()}, got {value!r}")
        lo, hi = self._range
        if not lo <= value <= hi:
            raise ProgrammingError(f"{value} out of range for {self.name.upper()}")

    def encode_valid(self, values, present):
        """One ``min``/``max`` range check for the whole column."""
        lo, hi = self._range
        if present and not (lo <= min(present) and max(present) <= hi):
            return None
        return super().encode_valid(values, present)

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
    column_types = frozenset((bool, int))

    def validate(self, value) -> None:
        """Raises ProgrammingError for values that are not bool/int."""
        if not isinstance(value, (bool, int)):
            raise ProgrammingError(f"expected BOOLEAN, got {value!r}")

    def encode(self, value) -> bytes:
        return b"\x01" if value else b"\x00"

    def decode(self, buffer, offset: int):
        return buffer[offset] != 0, offset + 1


class VarCharType(SQLType):
    column_types = frozenset((str,))

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
        """Raises ProgrammingError for a string UTF-8 cannot encode (a
        lone surrogate)."""
        try:
            return encode_text(value)
        except UnicodeEncodeError:
            raise ProgrammingError(f"{self.name.upper()} value {value!r} is not valid UTF-8") from None

    def encode_valid(self, values, present):
        """Each distinct string is length-checked and encoded once."""
        distinct = set(present)
        if distinct and max(map(len, distinct)) > self.max_length:
            return None
        try:
            encoded = dict(zip(distinct, map(encode_text, distinct)))
        except UnicodeEncodeError:  # a lone surrogate: failed value by value
            return None
        encoded[None] = b""
        return list(map(encoded.__getitem__, values))

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
    column_types = frozenset((float,))

    def validate(self, value) -> None:
        """Raises ProgrammingError for values that are not int/float and
        for an int too large for a double."""
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProgrammingError(f"expected DOUBLE, got {value!r}")
        try:
            float(value)
        except OverflowError:
            raise ProgrammingError(f"{value} out of range for DOUBLE") from None

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
