"""CQL column types.

The paper's schemas (Table 1) use ``int``, ``text``, ``boolean`` and
``set<int>``.  Which values each scalar type takes is the shared value
domain of :mod:`repro.storage.values`; what is CQL's own is the varint
integer codec and ``set<T>`` — the load-bearing one: a DWARF node's
whole child list becomes one compact, varint-packed value in a single
row, the property §5.1 credits for Cassandra beating MySQL on the
relationship-heavy DWARF structure.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

from repro.nosqldb.errors import InvalidRequest
from repro.storage.values import Boolean, Double, Integer, Text, ValueType
from repro.storage.varint import decode_varint, encode_varint


class CQLType(ValueType):
    """A value domain stored as a cell: no cell where the value is None."""

    error = InvalidRequest

    def __repr__(self) -> str:
        return f"<cql {self.name}>"


class IntType(CQLType, Integer):
    """``int`` (32-bit), zigzag-varint coded."""

    name = "int"
    encode = staticmethod(encode_varint)
    decode = staticmethod(decode_varint)

    def span(self, buffer, offset: int) -> int:
        while buffer[offset] & 0x80:  # varint continuation bits
            offset += 1
        return offset + 1


class BigIntType(IntType):
    name = "bigint"
    bits = 64


class TextType(CQLType, Text):
    pass


class BooleanType(CQLType, Boolean):
    pass


class DoubleType(CQLType, Double):
    pass


class SetType(CQLType):
    """``set<T>``: stored as a sorted, varint-counted element list."""

    value_types = frozenset((set, frozenset))

    def __init__(self, element: CQLType) -> None:
        self.element = element
        self.name = f"set<{element.name}>"

    def validate(self, value) -> None:
        """Raises InvalidRequest for non-sets or refused elements."""
        if not isinstance(value, (set, frozenset)):
            raise InvalidRequest(f"expected a set, got {value!r}")
        for item in value:
            self.element.validate(item)

    def encode(self, value, ends: Optional[list] = None) -> bytes:
        """Elements sorted; with ``ends``, the first and last of them are
        added to it, for :meth:`encode_valid`'s range check."""
        items = sorted(value)
        if ends is not None and items:
            ends += items[0], items[-1]
        return encode_varint(len(items)) + b"".join(map(self.element.encode, items))

    def encode_valid(self, values):
        """One pass over the element types, and one range check over each
        set's first and last element once sorted (sets are unhashable:
        none is encoded once for another)."""
        element = self.element
        if not set(map(type, chain.from_iterable(filter(None, values)))) <= element.value_types:
            return None
        encode, ends = self.encode, []
        cells = [None if value is None else encode(value, ends) for value in values]
        return cells if element.fits(set(ends)) else None

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
