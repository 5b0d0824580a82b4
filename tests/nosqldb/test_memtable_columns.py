"""The memtable column batch against the reference row decode.

Memtable rows leave storage a column at a time
(:class:`~repro.nosqldb.columnar.RowColumns`): the rows are split by the
codec's ``split_rows``, as a flush splits them, and each column is
decoded once per distinct value.  Whatever the rows — cells missing, in
any statement order, ``set<int>``, text, NaN and -0.0 doubles, a key
rewritten in place — and whatever order the columns are read in, every
column must equal what :func:`~repro.analysis.sstable_check.decode_row`
gives, and so must the scan and the fetches that read the memtable,
with the row cache on and off.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.analysis.sstable_check import columnfamily_check, decode_row
from repro.nosqldb.columnar import RowColumns
from repro.nosqldb.columnfamily import Column, ColumnFamily
from repro.nosqldb.types import parse_type

TYPES = {"id": "int", "n": "bigint", "s": "set<int>", "t": "text", "d": "double"}
# Byte lengths 0, 63, 64 and 200 straddle the one-byte length head.
TEXT = st.sampled_from(["", "a" * 63, "é" * 32, "b" * 200, "中文"]) | st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20
)
VALUES = {
    "n": st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    "s": st.sets(st.integers(min_value=-3, max_value=300), min_size=1, max_size=4),
    "t": TEXT,
    "d": st.sampled_from([-0.0, 0.0, float("nan"), float("inf")]) | st.floats(),
}
#: Keys from a small range: later chunks rewrite earlier rows in place.
KEYS = st.integers(min_value=0, max_value=12)


@st.composite
def chunks(draw):
    """One ``insert_columns`` chunk: the key and a subset of the other
    columns, in any order, with None (no cell) mixed in."""
    names = ["id", *draw(st.sets(st.sampled_from(sorted(VALUES))))]
    names = draw(st.permutations(names))
    keys = draw(st.lists(KEYS, min_size=1, max_size=16))
    values = [
        keys if name == "id" else
        draw(st.lists(st.none() | VALUES[name], min_size=len(keys), max_size=len(keys)))
        for name in names
    ]
    return names, values


def filled(chunk_list, row_cache_bytes):
    cf = ColumnFamily(
        "t", [Column(name, parse_type(kind)) for name, kind in TYPES.items()], "id",
        row_cache_bytes=row_cache_bytes,
    )
    for names, values in chunk_list:
        cf.insert_columns([cf.column(name) for name in names], values)
    return cf


def _exact(values):
    """Values compared by type and repr (a set by its sorted members):
    -0.0 differs from 0.0, NaN equals NaN."""
    return [
        (type(value), sorted(value) if isinstance(value, set) else repr(value))
        for value in values
    ]


@given(chunk_list=st.lists(chunks(), min_size=1, max_size=4),
       order=st.permutations(list(TYPES)), row_cache=st.booleans())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_every_memtable_column_equals_the_row_decode(chunk_list, order, row_cache):
    cf = filled(chunk_list, 1 << 20 if row_cache else 0)
    keys = [key for key, _ in cf._memtable]
    rows = [encoded for _, encoded in cf._memtable]
    decoded = [decode_row(cf, row) for row in rows]
    columns = RowColumns(cf._codec, rows)
    (scanned,) = cf.scan_batches()
    fetch = list(reversed(keys)) + keys[:2] + [99]  # repeats, and an absent key
    for attempt in ("cold", "warm"):  # the second fetch is served by the row cache
        batches = cf.get_batches(fetch)
        by_key = {key: row for key, row in zip(keys, decoded)}
        for name in order:  # any read order shares the one split
            expected = _exact(row[name] for row in decoded)
            assert _exact(columns.typed(name)) == expected, name
            assert _exact(scanned.values(name)) == expected, name
            fetched = [value for batch in batches for value in batch.values(name)]
            assert _exact(fetched) == _exact(by_key[key][name] for key in fetch[:-1]), (attempt, name)
    report = columnfamily_check(cf)
    assert report.ok, "\n".join(report.format_lines())
