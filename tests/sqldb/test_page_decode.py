"""The page decoder against the full-row decode.

A leaf page (or a fetch's rows) is read a column at a time by
:class:`~repro.sqldb.table.PageBatch`: rows grouped by null bitmap,
variable-width end offsets shared across columns, fixed-width runs
unpacked by ``struct``.  Whatever the table, the NULL pattern, the
values and the order the columns are read in, every column must equal
what :func:`~repro.analysis.heap_check.decode_row` gives.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.analysis.heap_check import decode_row
from repro.sqldb.table import PageBatch, SQLColumn, Table
from repro.sqldb.types import parse_type

INT = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)
BIGINT = st.sampled_from([-(2 ** 63), 2 ** 63 - 1, 0]) | st.integers(
    min_value=-(2 ** 63), max_value=2 ** 63 - 1
)
# Byte lengths 0, 63, 64 and 200 straddle the one-byte length head
# (a zigzag varint: 63 bytes is the longest that fits one byte).
TEXT = st.sampled_from(["", "a" * 63, "é" * 32, "b" * 200, "中文"]) | st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
)
DOUBLE = st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan")]) | st.floats()
BOOLEAN = st.booleans() | st.integers(min_value=0, max_value=3)  # MySQL takes an int

VALUES = {
    "INT": INT, "BIGINT": BIGINT, "BOOLEAN": BOOLEAN,
    "TEXT": TEXT, "VARCHAR(255)": TEXT, "DOUBLE": DOUBLE,
}


@st.composite
def pages(draw):
    """A table of 1-12 columns (an INT key first) and one page of its
    encoded rows, of 1, 2, 3 or 64 rows, NULLs mixing bitmaps."""
    types = draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=11))
    table = Table(
        "t",
        [SQLColumn("id", parse_type("INT"))]
        + [SQLColumn(f"c{i}", parse_type(spec)) for i, spec in enumerate(types)],
        ("id",),
    )
    n_rows = draw(st.sampled_from([1, 2, 3, 64]))
    rows = []
    for key in range(n_rows):
        row = {"id": key}
        for i, spec in enumerate(types):
            row[f"c{i}"] = draw(st.none() | VALUES[spec])
        rows.append(table.encode_row(row))
    order = draw(st.permutations(table.column_names))
    return table, rows, order


def _exact(values):
    """Values compared by type and repr: -0.0, NaN and bool-vs-int count."""
    return [(type(value), repr(value)) for value in values]


@given(page=pages())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_every_column_of_a_page_equals_the_row_decode(page):
    table, rows, order = page
    decoded = [decode_row(table, row) for row in rows]
    batch = PageBatch(table, rows)
    for name in order:  # any read order shares the same offsets
        expected = _exact(row[name] for row in decoded)
        assert _exact(batch.column(name)) == expected, name
        assert _exact(table.decode_column(rows, name)) == expected, name
