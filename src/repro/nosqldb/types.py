"""CQL column types.

The paper's schemas (Table 1) use ``int``, ``text``, ``boolean`` and
``set<int>``.  Each type validates Python values and encodes/decodes them
to the byte format stored in memtables and SSTables.  ``set<int>`` is the
load-bearing one: a DWARF node's whole child list becomes one compact,
varint-packed value in a single row — the property §5.1 credits for
Cassandra beating MySQL on the relationship-heavy DWARF structure.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

from repro.nosqldb.errors import InvalidRequest
from repro.storage.encoding import (
    decode_bool,
    decode_float,
    decode_text,
    encode_bool,
    encode_float,
    encode_text,
    text_span,
)
from repro.storage.varint import decode_varint, encode_varint

_NONE = type(None)


class CQLType:
    """Base class: a named value domain with a byte codec."""

    name = "?"

    #: The one Python type of every valid value, for a type whose equal
    #: values encode alike (int, text, boolean); None for double (0.0
    #: equals -0.0) and set (unhashable values).
    value_type: Optional[type] = None

    def validate(self, value) -> None:
        raise NotImplementedError

    def encode(self, value) -> bytes:
        raise NotImplementedError

    def validate_encode(self, value) -> bytes:
        """Validate then encode in one call (the write hot path)."""
        self.validate(value)
        return self.encode(value)

    def encode_column(self, values: Sequence) -> List[Optional[bytes]]:
        """:meth:`validate_encode` of each of ``values``, None kept as
        None: one column of a bulk write, its type resolved once.  When
        every value is of :attr:`value_type` they are valid as a whole,
        and a value repeating down the column is encoded once.

        Raises InvalidRequest for the first invalid value.
        """
        value_type = self.value_type
        if value_type is not None and set(map(type, values)) <= {value_type, _NONE}:
            encode = self.encode
            distinct = set(values)
            if None not in distinct and 2 * len(distinct) > len(values):
                return list(map(encode, values))
            encoded = {value: encode(value) for value in distinct if value is not None}
            encoded[None] = None
            return list(map(encoded.__getitem__, values))
        encode = self.validate_encode
        return [None if value is None else encode(value) for value in values]

    def decode(self, buffer, offset: int) -> Tuple[object, int]:
        raise NotImplementedError

    def span(self, buffer, offset: int) -> int:
        """End offset of the value encoded at ``offset``: exactly
        ``decode(buffer, offset)[1]``, found without building the value
        (the flush path slices raw cells with it)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<cql {self.name}>"

    def __eq__(self, other) -> bool:
        return isinstance(other, CQLType) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)


class IntType(CQLType):
    name = "int"
    value_type = int

    def validate(self, value) -> None:
        """Raises InvalidRequest for values that are not integers."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidRequest(f"expected int, got {value!r}")

    encode = staticmethod(encode_varint)

    def validate_encode(self, value) -> bytes:
        if type(value) is not int:
            self.validate(value)
        return encode_varint(value)

    def decode(self, buffer, offset: int):
        return decode_varint(buffer, offset)

    def span(self, buffer, offset: int) -> int:
        while buffer[offset] & 0x80:  # varint continuation bits
            offset += 1
        return offset + 1


class BigIntType(IntType):
    name = "bigint"


class TextType(CQLType):
    name = "text"
    value_type = str

    def validate(self, value) -> None:
        """Raises InvalidRequest for values that are not strings."""
        if not isinstance(value, str):
            raise InvalidRequest(f"expected text, got {value!r}")

    encode = staticmethod(encode_text)

    def validate_encode(self, value) -> bytes:
        if type(value) is not str:
            self.validate(value)
        return encode_text(value)

    def decode(self, buffer, offset: int):
        return decode_text(buffer, offset)

    span = staticmethod(text_span)


class BooleanType(CQLType):
    name = "boolean"
    value_type = bool

    def validate(self, value) -> None:
        """Raises InvalidRequest for values that are not booleans."""
        if not isinstance(value, bool):
            raise InvalidRequest(f"expected boolean, got {value!r}")

    encode = staticmethod(encode_bool)

    def validate_encode(self, value) -> bytes:
        if type(value) is not bool:
            self.validate(value)
        return b"\x01" if value else b"\x00"

    def decode(self, buffer, offset: int):
        return decode_bool(buffer, offset)

    def span(self, buffer, offset: int) -> int:
        return offset + 1


class DoubleType(CQLType):
    name = "double"

    def validate(self, value) -> None:
        """Raises InvalidRequest for values that are not int/float."""
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InvalidRequest(f"expected double, got {value!r}")

    def encode(self, value) -> bytes:
        return encode_float(float(value))

    def decode(self, buffer, offset: int):
        return decode_float(buffer, offset)

    def span(self, buffer, offset: int) -> int:
        return offset + 8


class SetType(CQLType):
    """``set<T>``: stored as a sorted, varint-counted element list."""

    def __init__(self, element: CQLType) -> None:
        self.element = element
        self.name = f"set<{element.name}>"

    def validate(self, value) -> None:
        """Raises InvalidRequest for non-sets or ill-typed elements."""
        if not isinstance(value, (set, frozenset)):
            raise InvalidRequest(f"expected a set, got {value!r}")
        for item in value:
            self.element.validate(item)

    def encode(self, value) -> bytes:
        items = sorted(value)
        return encode_varint(len(items)) + b"".join(map(self.element.encode, items))

    def encode_column(self, values: Sequence) -> List[Optional[bytes]]:
        """:meth:`CQLType.encode_column`: when every value is a set (or
        None) of :attr:`element`'s ``value_type``, the whole column is
        valid after one pass over the element types.

        Raises InvalidRequest for the first invalid value.
        """
        value_type = self.element.value_type
        if (
            value_type is not None
            and set(map(type, values)) <= {set, frozenset, _NONE}
            and set(map(type, chain.from_iterable(filter(None, values)))) <= {value_type}
        ):
            encode = self.encode
            return [None if value is None else encode(value) for value in values]
        return super().encode_column(values)

    def decode(self, buffer, offset: int):
        count, offset = decode_varint(buffer, offset)
        items = set()
        for _ in range(count):
            item, offset = self.element.decode(buffer, offset)
            items.add(item)
        return items, offset

    def span(self, buffer, offset: int) -> int:
        count, offset = decode_varint(buffer, offset)
        element_span = self.element.span
        for _ in range(count):
            offset = element_span(buffer, offset)
        return offset


_SCALARS = {
    t.name: t
    for t in (IntType(), BigIntType(), TextType(), BooleanType(), DoubleType())
}


def parse_type(spec: str) -> CQLType:
    """Resolve a type name like ``int`` or ``set<int>``.

    Raises InvalidRequest for unknown type names and nested sets.
    """
    text = spec.strip().lower()
    if text in _SCALARS:
        return _SCALARS[text]
    if text.startswith("set<") and text.endswith(">"):
        inner = parse_type(text[4:-1])
        if isinstance(inner, SetType):
            raise InvalidRequest("nested set types are not supported")
        return SetType(inner)
    raise InvalidRequest(f"unknown CQL type {spec!r}")
