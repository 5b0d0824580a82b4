"""Flush and compaction move columns (docs/columnar_blocks.md, "Write path").

A memtable filled only by proven-fresh chunks flushes from the chunks'
encoded cell columns (``run_feed``), and compaction merges the inputs'
column chunks (``compact``); neither re-splits row bytes.  Both must
store exactly what the row path stores, so every test here builds the
row path beside them and compares blocks, chunk layouts, block keys,
stats and zone maps — the zone maps by value *and* type.  Today's
compaction (dict merge over ``items()``, then sort) is frozen below as
the oracle.
"""

from __future__ import annotations

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.sstable_check import encode_row
from repro.nosqldb import columnfamily
from repro.nosqldb.columnar import ColumnarCodec
from repro.nosqldb.columnfamily import Column, ColumnFamily
from repro.nosqldb.errors import InvalidRequest
from repro.nosqldb.sstable import SSTable, _block_view, compact, run_feed
from repro.nosqldb.types import parse_type
from repro.storage.encoding import encode_text
from repro.storage.varint import encode_varint

from tests.env import env

WIDE = (
    ("id", "int"),
    ("name", "text"),
    ("big", "bigint"),
    ("flag", "boolean"),
    ("score", "double"),
    ("kids", "set<int>"),
)
VALUE_COLUMNS = [name for name, _ in WIDE[1:]]


class Sub(int):
    """A valid int whose type is not exactly ``int``: its zone entry
    must come from decoding, never from the bound value."""


def wide_cf() -> ColumnFamily:
    return ColumnFamily("w", [Column(name, parse_type(spec)) for name, spec in WIDE], "id")


def typed(value):
    if isinstance(value, frozenset):
        return frozenset(map(typed, value))
    return type(value), value


def signature(table: SSTable):
    """Everything a build decides: stored blocks, chunk layouts, block
    keys, stats, and zone maps with every bound's type."""
    zones = [
        None if zone_map is None
        else {name: tuple(map(typed, zone)) for name, zone in zone_map.items()}
        for zone_map in table._zone_maps
    ]
    return (
        [table._block_data(i) for i in range(len(table._block_keys))],
        table._layouts, table._block_keys, table.stats(), zones,
    )


def row_path(memtable, codec) -> SSTable:
    """What a flush of ``memtable`` stored before runs existed."""
    return SSTable(memtable.sorted_items(), codec, tombstones=memtable.tombstones)


def flush_against_row_path(cf: ColumnFamily):
    """Flush ``cf`` (no compaction) and require every built table to
    equal the row path's build of its memtable; returns how many
    memtables had runs."""
    memtables = [*cf._pending, cf._memtable]
    memtables = [m for m in memtables if len(m) or m.tombstones]
    expected = [row_path(m, cf._codec) for m in memtables]
    had_runs = [m.column_runs() is not None for m in memtables]
    for memtable, runs in zip(memtables, had_runs):
        if runs:  # the feeder on its own, beside the family's flush
            direct = SSTable(run_feed(memtable.column_runs(), cf._codec), cf._codec)
            assert signature(direct) == signature(row_path(memtable, cf._codec))
    before = len(cf._sstables)
    with mock.patch.object(columnfamily, "COMPACTION_THRESHOLD", 10**6):
        cf.flush()
    built = cf._sstables[before:]
    assert [signature(t) for t in built] == [signature(t) for t in expected]
    for table, runs in zip(built, had_runs):
        cost = table.build_cost
        assert (cost.rows_from_columns, cost.rows_resplit) == (
            (len(table), 0) if runs else (0, len(table))
        )
    assert all(m.column_runs() is None for m in memtables)  # released
    return sum(had_runs)


def write_column_wise(cf, order, rows):
    """insert_columns of ``rows`` (dicts) with statement columns ``order``."""
    cf.insert_columns(
        [cf.column(name) for name in order],
        [[row.get(name) for row in rows] for name in order],
    )


# ----------------------------------------------------------------------
# flush: hypothesis differential against the row path
# ----------------------------------------------------------------------
cell_values = {
    "name": st.one_of(st.sampled_from(["a", "é", "stn"]), st.text(max_size=70)),
    "big": st.one_of(
        st.sampled_from([1, -1, 2**40]), st.integers(-2**62, 2**62),
        st.integers(0, 9).map(Sub),
    ),
    "flag": st.booleans(),
    "score": st.one_of(st.sampled_from([0.5, -0.0]), st.floats(allow_nan=True)),
    "kids": st.frozensets(st.integers(-10**6, 10**6), max_size=4),
}
sparse_rows = st.lists(
    st.fixed_dictionaries({}, optional=cell_values), min_size=1, max_size=12
)


@st.composite
def scenarios(draw):
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(
            ["fresh"] * 5 + ["overwrite", "delete", "replay", "bad", "unproven",
                             "repeat", "flush"]
        ))
        order = draw(st.permutations(["id", *VALUE_COLUMNS]))
        order = [name for name in order if name == "id" or draw(st.booleans())]
        steps.append((kind, order, draw(sparse_rows), draw(st.integers(0, 3))))
    config = {
        "flush_threshold": draw(st.sampled_from([columnfamily.FLUSH_THRESHOLD, 300, 900])),
        "chunk": draw(st.sampled_from([columnfamily.ENCODE_CHUNK, 3, 5])),
        "gap": draw(st.integers(1, 3)),
    }
    return config, steps


def apply(cf, step, top, gap):
    """Run one scenario step; returns the highest key written so far."""
    kind, order, rows, pick = step
    keys = [top + gap * (i + 1) for i in range(len(rows))]
    for key, row in zip(keys, rows):
        row["id"] = key
    if kind == "fresh":
        write_column_wise(cf, order, rows)
        return keys[-1]
    if kind == "unproven":  # descending: proves nothing
        write_column_wise(cf, order, rows[::-1])
        return keys[-1]
    if kind == "repeat":  # a column named twice: rejected, nothing written
        with pytest.raises(InvalidRequest, match="more than once"):
            cf.insert_columns(
                [cf.column("id"), cf.column("big"), cf.column("big")],
                [[keys[0]], [1], [2]],
            )
        return top
    if kind == "bad":  # an ill-typed value in the middle: the rows before it land
        rows[len(rows) // 2]["big"] = "x"
        with pytest.raises(InvalidRequest):
            write_column_wise(cf, ["id", *VALUE_COLUMNS], rows)
        return keys[-1]
    if kind == "replay":
        cf.apply_replayed(keys[0], encode_row(cf, {"id": keys[0], "big": 5}, 77))
        return keys[0]
    if kind == "flush":
        flush_against_row_path(cf)
        return top
    if top == 0:
        return top
    target = min(top, 1 + pick * gap)
    if kind == "overwrite":
        cf.insert({"id": target, "name": "over"})
    else:
        cf.delete(target)
    return top


@given(case=scenarios())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_flush_from_runs_matches_the_row_path(case):
    config, steps = case
    with env(REPRO_CHECK="1"), \
            mock.patch.object(columnfamily, "FLUSH_THRESHOLD", config["flush_threshold"]), \
            mock.patch.object(columnfamily, "ENCODE_CHUNK", config["chunk"]), \
            mock.patch.object(columnfamily, "COMPACTION_THRESHOLD", 10**6):
        cf = wide_cf()
        top = 0
        for step in steps:
            top = apply(cf, step, top, config["gap"])
        flush_against_row_path(cf)


@given(batches=st.lists(st.tuples(st.permutations(["id", *VALUE_COLUMNS]), sparse_rows),
                        min_size=1, max_size=6))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fresh_batches_flush_every_row_from_runs(batches):
    """Only fresh chunks, across small seal and chunk sizes: every
    memtable flushes from its runs, with no row re-split."""
    with mock.patch.object(columnfamily, "FLUSH_THRESHOLD", 500), \
            mock.patch.object(columnfamily, "ENCODE_CHUNK", 4), \
            mock.patch.object(columnfamily, "COMPACTION_THRESHOLD", 10**6):
        cf = wide_cf()
        top = 0
        for order, rows in batches:
            for row in rows:
                top += 1
                row["id"] = top
            write_column_wise(cf, order, rows)
        n_memtables = sum(1 for m in [*cf._pending, cf._memtable] if len(m))
        assert flush_against_row_path(cf) == n_memtables


# ----------------------------------------------------------------------
# flush: which mutations drop a memtable's runs
# ----------------------------------------------------------------------
def fresh_rows(start, n):
    return [
        {"id": key, "name": "stn-%d" % (key % 3), "big": key * 10**6,
         "flag": key % 2 == 0, "score": key / 4, "kids": frozenset({key})}
        for key in range(start, start + n)
    ]


def test_statement_order_nulls_and_sets_flush_from_runs():
    cf = wide_cf()
    rows = fresh_rows(1, 40)
    for row in rows[::3]:
        row["score"] = None
        row["kids"] = None
    write_column_wise(cf, ["kids", "score", "id", "name", "flag", "big"], rows)
    assert cf._memtable.column_runs() is not None
    assert flush_against_row_path(cf) == 1


def test_an_int_subclass_value_zones_from_decoding():
    cf = wide_cf()
    rows = fresh_rows(1, 20)
    rows[4]["big"] = Sub(7)
    write_column_wise(cf, ["id", "big"], rows)
    assert flush_against_row_path(cf) == 1
    (table,) = cf._sstables
    lo = table._zone_maps[0]["big"][0]
    assert type(lo) is int and lo == 7


@pytest.mark.parametrize("mutation", [
    "overwrite", "delete", "replay", "failing-row", "unproven", "raised",
])
def test_a_mutation_outside_a_fresh_chunk_drops_the_runs(mutation):
    cf = wide_cf()
    write_column_wise(cf, ["id", *VALUE_COLUMNS], fresh_rows(1, 30))
    assert cf._memtable.column_runs() is not None
    if mutation == "overwrite":
        cf.insert({"id": 5, "name": "again"})
    elif mutation == "delete":
        cf.delete(7)
    elif mutation == "replay":
        cf.apply_replayed(100, encode_row(cf, {"id": 100, "big": 1}, 3))
    elif mutation == "failing-row":
        rows = fresh_rows(100, 4)
        rows[2]["big"] = "x"
        with pytest.raises(InvalidRequest):
            write_column_wise(cf, ["id", "big"], rows)
    elif mutation == "unproven":
        write_column_wise(cf, ["id", "big"], fresh_rows(100, 4)[::-1])
    else:  # a fault inside the write loop, after the chunk proved fresh
        real_put = columnfamily.Memtable.put

        def put(memtable, key, row):
            if key == 102:
                raise OSError("memtable fault")
            real_put(memtable, key, row)

        with mock.patch.object(columnfamily.Memtable, "put", put), pytest.raises(OSError):
            write_column_wise(cf, ["id", "big"], fresh_rows(100, 4))
    assert cf._memtable.column_runs() is None
    assert flush_against_row_path(cf) == 0


def test_a_seal_cuts_a_chunk_into_two_runs():
    with mock.patch.object(columnfamily, "FLUSH_THRESHOLD", 1200):
        cf = wide_cf()
        write_column_wise(cf, ["id", *VALUE_COLUMNS], fresh_rows(1, 60))
        sealed = cf._pending[0].column_runs()
        assert sealed is not None and len(cf._pending) >= 1
        (run, start, stop), = sealed
        assert start == 0 and 0 < stop < 60
        assert flush_against_row_path(cf) == len(cf._sstables)


# ----------------------------------------------------------------------
# compaction: the frozen oracle
# ----------------------------------------------------------------------
def frozen_compact(tables, codec, compressed=True):
    """``compact`` before it merged column chunks: every row
    rematerialized through ``items()`` into a dict, then sorted."""
    merged = {}
    deleted = set()
    for table in tables:  # oldest first; later tables overwrite
        deleted |= set(table.tombstones)
        for key, row in table.items():
            merged[key] = row
            deleted.discard(key)
    for key in deleted:
        merged.pop(key, None)
    items = sorted(merged.items(), key=lambda item: item[0])
    return SSTable(items, codec, compressed=compressed)


def built_table(codec, rows_by_key, tombstones):
    cf = wide_cf()
    items = []
    for key in sorted(rows_by_key):
        order, row = rows_by_key[key]
        items.append((key, encode_row(cf, row, 1000 + key) if order is None else _ordered(
            cf, order, row, 2000 + key)))
    return SSTable(items, codec, tombstones=frozenset(tombstones))


def _ordered(cf, order, row, tick):
    """``row`` encoded with its cells in statement ``order``."""
    cells = [
        encode_text(name) + tick.to_bytes(8, "little") + cf.column(name).cql_type.encode(row[name])
        for name in order if row.get(name) is not None
    ]
    return encode_varint(len(cells)) + b"".join(cells)


input_table = st.tuples(
    st.dictionaries(
        st.integers(0, 150),
        st.tuples(st.one_of(st.none(), st.permutations(["id", *VALUE_COLUMNS])),
                  st.fixed_dictionaries({}, optional=cell_values)),
        max_size=60,
    ),
    st.frozensets(st.integers(0, 150), max_size=8),
)


@given(inputs=st.lists(input_table, min_size=1, max_size=4))
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_compaction_matches_the_frozen_oracle(inputs):
    codec = wide_cf()._codec
    tables = []
    for rows, tombstones in inputs:
        rows = {key: (order, {**row, "id": key}) for key, (order, row) in rows.items()}
        tables.append(built_table(codec, rows, tombstones))
    with env(REPRO_CHECK="1"):
        expected = frozen_compact(tables, codec)
        merged = compact(tables, codec)
    assert signature(merged) == signature(expected)
    assert list(merged.items()) == list(expected.items())


def test_compaction_of_disjoint_and_overlapping_family_tables():
    with mock.patch.object(columnfamily, "COMPACTION_THRESHOLD", 10**6):
        cf = wide_cf()
        write_column_wise(cf, ["id", *VALUE_COLUMNS], fresh_rows(500, 300))
        cf.flush()
        write_column_wise(cf, ["name", "id", "big"], fresh_rows(1, 200))  # below: unproven
        cf.flush()
        cf.insert({"id": 50, "name": "newer"})
        cf.delete(60)
        cf.delete(700)
        cf.flush()
    tables = list(cf._sstables)
    expected = frozen_compact(tables, cf._codec)
    merged = compact(tables, cf._codec)
    assert signature(merged) == signature(expected)
    assert merged.build_cost.rows_from_columns == len(merged) == 498


def test_cell_lengths_are_the_materialized_lengths():
    cf = wide_cf()
    rows = fresh_rows(1, 50)
    for row in rows[::4]:
        row["name"] = None
    write_column_wise(cf, ["kids", "id", "name", "big"], rows)
    cf.flush()
    (table,) = cf._sstables
    for index in range(len(table._block_keys)):
        block = table._decode(index)
        view = _block_view(block, cf._codec)
        assert view.lens == [len(block.materialize(i)) for i in range(len(block))]


def test_codec_has_one_emitter():
    """encode_block is the row feeder over the one emitter."""
    cf = wide_cf()
    write_column_wise(cf, ["id", *VALUE_COLUMNS], fresh_rows(1, 10))
    items = cf._memtable.sorted_items()
    keys = [b"\x01" + encode_varint(key) for key, _ in items]
    rows = [row for _, row in items]
    codec: ColumnarCodec = cf._codec
    assert codec.encode_block(keys, rows, codec.zone_memo()) == codec.encode_columns(
        keys, *codec.split_rows(rows), codec.zone_memo()
    )
