"""Member key codec — exotic float round trips.

Every stored cell key passes through ``encode_member``/``decode_member``;
non-finite floats must survive the trip (``f:inf``, ``f:-inf``,
``f:nan``) or reloaded cubes would corrupt keys that the in-memory
builder handles fine.
"""

import math

import pytest

from repro.mapping.base import MappingError, decode_member, encode_member


@pytest.mark.parametrize(
    "value,expected",
    [
        (float("inf"), "f:inf"),
        (float("-inf"), "f:-inf"),
        (1.5, "f:1.5"),
        (-0.25, "f:-0.25"),
    ],
)
def test_float_encodings(value, expected):
    assert encode_member(value) == expected
    assert decode_member(expected) == value


def test_nan_round_trip_preserves_nanness():
    encoded = encode_member(float("nan"))
    assert encoded == "f:nan"
    decoded = decode_member(encoded)
    assert isinstance(decoded, float) and math.isnan(decoded)


def test_nan_encoding_is_canonical():
    # Any NaN payload (there are many bit patterns) encodes to one token.
    assert encode_member(float("nan") * -1) == "f:nan"


def test_finite_floats_round_trip_exactly():
    for value in (0.0, 1e-300, 1e300, 3.141592653589793, -2.5e-10):
        assert decode_member(encode_member(value)) == value


def test_malformed_float_payload_raises_mapping_error():
    with pytest.raises(MappingError):
        decode_member("f:not-a-float")


def test_int_and_text_unaffected():
    assert decode_member(encode_member(42)) == 42
    assert decode_member(encode_member("inf")) == "inf"  # text stays text
