"""The one value domain both engines store: INT, BIGINT, BOOLEAN, TEXT, DOUBLE.

The paper maps one cube onto two MySQL and two Cassandra schemas
(Table 1), which holds only if both engines take the same values.  So
which values a column takes is written here once — the type check, the
32/64-bit range check, the UTF-8 check (a lone surrogate), the check
that an int fits a double, the NaN-key check, their messages, the
whole-column fast path over them, :meth:`ValueType.canonical` and
:func:`indexable` — and each engine's types (:mod:`repro.sqldb.types`,
:mod:`repro.nosqldb.types`) subclass these domains, adding only what
differs: the integer codec (fixed width against varint), the cell a NULL
gives, the error class a refused value raises and the spelling of type
names in messages.

The few dialect differences are written down in
``docs/storage_formats.md``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.storage.encoding import (
    decode_bool,
    decode_float,
    decode_text,
    encode_bool,
    encode_float,
    text_span,
)
from repro.storage.varint import encode_varint

_NONE = type(None)


def indexable(value) -> bool:
    """Whether a secondary index holds ``value``: not NULL, nor NaN,
    which compares with nothing (``x = NaN`` matches no row) and would
    break the index's order."""
    return value is not None and value == value


class ValueType:
    """A named value domain with a byte codec; an engine subclass sets
    :attr:`error`, and :attr:`null` where a NULL stores bytes."""

    name = "?"
    #: The engine's error class for a refused value.
    error: type = ValueError
    #: The cell a None (NULL, or no cell) stands as in a column.
    null: Optional[bytes] = None
    #: Stored bytes of every value, or None for a variable-width type.
    width: Optional[int] = None
    #: The exact Python types of a column :meth:`encode_column` takes
    #: as a whole: one check over it (:meth:`fits`) stands for
    #: validating each value.
    value_types: frozenset = frozenset()

    @property
    def label(self) -> str:
        """The type as the engine's messages spell it."""
        return self.name

    def validate(self, value) -> None:
        """Raises :attr:`error` for a value outside the domain."""
        raise NotImplementedError

    def encode(self, value) -> bytes:
        raise NotImplementedError

    def decode(self, buffer, offset: int) -> Tuple[object, int]:
        raise NotImplementedError

    def span(self, buffer, offset: int) -> int:
        """End offset of the value encoded at ``offset``: exactly
        ``decode(buffer, offset)[1]``, found without building the value."""
        return offset + self.width

    def canonical(self, values: Sequence) -> Sequence:
        """``values`` as their stored cells decode: what an index takes,
        so it holds what a backfill from stored rows would."""
        return values

    def validate_encode(self, value) -> bytes:
        """The one per-value check: :meth:`validate`, then :meth:`encode`,
        which refuses what only encoding finds (a lone surrogate)."""
        self.validate(value)
        return self.encode(value)

    def fits(self, distinct: set) -> bool:
        """Whether ``distinct``, values of :attr:`value_types`, are all
        in the domain: one check over a column's distinct values."""
        return True

    def encode_column(self, values: Sequence) -> Tuple[List, Optional[Exception]]:
        """:meth:`validate_encode` of each of ``values``, a None as
        :attr:`null`: one column of a bulk write, its type resolved once.
        Returns the cells before the first value refused and that value's
        error, None when every value encoded.

        When every present value is of :attr:`value_types`, the column
        is encoded whole (:meth:`encode_valid`) and no value is
        validated on its own.
        """
        types = set(map(type, values))
        types.discard(_NONE)
        if types <= self.value_types:
            try:
                cells = self.encode_valid(values)
            except self.error:  # a value only its encoding refuses: found below
                cells = None
            if cells is not None:
                return cells, None
        encode, null = self.validate_encode, self.null
        cells = []
        for value in values:
            if value is None:
                cells.append(null)
                continue
            try:
                cells.append(encode(value))
            except self.error as error:
                return cells, error
        return cells, None

    def encode_valid(self, values: Sequence) -> Optional[List]:
        """The cells of ``values``, each None or of :attr:`value_types`;
        None when their distinct values do not :meth:`fits`.  A value
        repeating down the column is encoded once, equal values encoding
        alike.  Raises :attr:`error` for a value only its encoding
        refuses."""
        distinct = set(values)
        distinct.discard(None)
        if not self.fits(distinct):
            return None
        if len(distinct) == len(values):
            return list(map(self.encode, values))
        encoded = dict(zip(distinct, map(self.encode, distinct)))
        encoded[None] = self.null
        return list(map(encoded.__getitem__, values))

    def refuse_keys(self, name: str, keys: Sequence, stop: int, error=None):
        """``(stop, error)``, narrowed to the first of ``keys[:stop]``
        that primary key column ``name`` cannot hold, and its error."""
        return stop, error

    def check_keys(self, name: str, keys: Sequence) -> Tuple[int, Optional[Exception]]:
        """``(stop, error)``: the first of ``keys`` that an INSERT would
        refuse as a key of column ``name`` — None, outside the domain,
        unencodable or NaN — and its error; ``(len(keys), None)`` when
        it takes them all.  The column is checked whole, as
        :meth:`encode_column` checks one."""
        stop = keys.index(None) if None in keys else len(keys)
        cells, error = self.encode_column(keys[:stop])
        if error is None and stop < len(keys):
            error = self.error(f"expected {self.label}, got None")
        return self.refuse_keys(name, keys, len(cells), error)

    def check_key(self, name: str, key) -> None:
        """Raises :attr:`error` for a key :meth:`check_keys` refuses."""
        error = self.check_keys(name, (key,))[1]
        if error is not None:
            raise error

    def __eq__(self, other) -> bool:
        """The same type of the same engine."""
        return isinstance(other, ValueType) and (other.error, other.name) == (self.error, self.name)

    def __hash__(self) -> int:
        return hash(self.name)


class Integer(ValueType):
    """INT (32-bit) and, with :attr:`bits` 64, BIGINT."""

    bits = 32
    value_types = frozenset((int,))

    def validate(self, value) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise self.error(f"expected {self.label}, got {value!r}")
        bound = 1 << self.bits - 1
        if not -bound <= value < bound:
            raise self.error(f"{value} out of range for {self.label}")

    def fits(self, distinct) -> bool:
        """One ``min``/``max`` range check for the whole column."""
        bound = 1 << self.bits - 1
        return not distinct or -bound <= min(distinct) and max(distinct) < bound


class Boolean(ValueType):
    name = "boolean"
    width = 1
    value_types = frozenset((bool,))

    def validate(self, value) -> None:
        if not isinstance(value, tuple(self.value_types)):
            raise self.error(f"expected {self.label}, got {value!r}")

    encode = staticmethod(encode_bool)
    decode = staticmethod(decode_bool)


class Text(ValueType):
    """UTF-8 text with a varint length prefix, of at most
    :attr:`max_length` characters when that is set."""

    name = "text"
    value_types = frozenset((str,))
    max_length: Optional[int] = None

    def validate(self, value) -> None:
        if not isinstance(value, str):
            raise self.error(f"expected {self.label}, got {value!r}")
        if self.max_length is not None and len(value) > self.max_length:
            raise self.error(f"value of length {len(value)} exceeds {self.label}")

    def fits(self, distinct) -> bool:
        limit = self.max_length
        return limit is None or not distinct or max(map(len, distinct)) <= limit

    def encode(self, value) -> bytes:
        """The bytes of ``encode_text``; raises :attr:`error` for a
        string UTF-8 cannot encode (a lone surrogate)."""
        try:
            raw = value.encode("utf-8")
        except UnicodeEncodeError:
            raise self.error(f"{self.label} value {value!r} is not valid UTF-8") from None
        return encode_varint(len(raw)) + raw

    decode = staticmethod(decode_text)
    span = staticmethod(text_span)


class Double(ValueType):
    """IEEE 754 binary64; an int is taken when a double can hold it."""

    name = "double"
    width = 8
    value_types = frozenset((float,))

    def validate(self, value) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise self.error(f"expected {self.label}, got {value!r}")
        try:
            float(value)
        except OverflowError:
            raise self.error(f"{value} out of range for {self.label}") from None

    def encode(self, value) -> bytes:
        return encode_float(float(value))

    decode = staticmethod(decode_float)

    def canonical(self, values):
        """An int is stored as the double it equals."""
        return [value if value is None else float(value) for value in values]

    def encode_valid(self, values):
        """Each value encoded on its own: 0.0 equals -0.0, yet each
        stores its own sign."""
        encode, null = self.encode, self.null
        return [null if value is None else encode(value) for value in values]

    def refuse_keys(self, name, keys, stop, error=None):
        """NaN equals no key, itself included: a table would hold one
        row per NaN, so no key may be NaN."""
        at = next((i for i, key in zip(range(stop), keys) if key != key), stop)
        if at < stop:
            return at, self.error(f"primary key column {name!r} cannot be NaN")
        return stop, error
