"""Scalar byte encodings shared by the two storage engines.

Everything is length- or tag-prefixed so rows can be decoded without a
schema-side size table; all multi-byte numbers are little-endian.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.storage.varint import decode_varint, encode_varint

_FLOAT = struct.Struct("<d")


def encode_text(value: str) -> bytes:
    """UTF-8 with a varint byte-length prefix."""
    raw = value.encode("utf-8")
    return encode_varint(len(raw)) + raw


def decode_text(buffer, offset: int = 0) -> Tuple[str, int]:
    length, offset = decode_varint(buffer, offset)
    end = offset + length
    return bytes(buffer[offset:end]).decode("utf-8"), end


def text_span(buffer, offset: int = 0) -> int:
    """End offset of the text encoded at ``offset``: exactly
    ``decode_text(buffer, offset)[1]``, without decoding the text."""
    length = buffer[offset]
    if length < 0x80:  # lengths are non-negative: zigzag is << 1
        return offset + 1 + (length >> 1)
    length, offset = decode_varint(buffer, offset)
    return offset + length


def encode_bytes(value: bytes) -> bytes:
    return encode_varint(len(value)) + value


def decode_bytes(buffer, offset: int = 0) -> Tuple[bytes, int]:
    length, offset = decode_varint(buffer, offset)
    end = offset + length
    return bytes(buffer[offset:end]), end


def encode_bytes_vector(values) -> bytes:
    """A counted vector of byte strings: varint count, then each value
    length-prefixed.  Used for columnar block dictionaries."""
    parts = [encode_varint(len(values))]
    parts.extend(encode_bytes(value) for value in values)
    return b"".join(parts)


def decode_bytes_vector(buffer, offset: int = 0) -> Tuple[list, int]:
    count, offset = decode_varint(buffer, offset)
    values = []
    for _ in range(count):
        value, offset = decode_bytes(buffer, offset)
        values.append(value)
    return values, offset


def encode_bool(value: bool) -> bytes:
    return b"\x01" if value else b"\x00"


def decode_bool(buffer, offset: int = 0) -> Tuple[bool, int]:
    return buffer[offset] != 0, offset + 1


def encode_float(value: float) -> bytes:
    return _FLOAT.pack(value)


def decode_float(buffer, offset: int = 0) -> Tuple[float, int]:
    return _FLOAT.unpack_from(buffer, offset)[0], offset + 8
