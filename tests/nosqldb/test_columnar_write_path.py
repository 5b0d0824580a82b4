"""The flush/compaction write path of columnar blocks
(docs/columnar_blocks.md, "Write path").

The encoder walks stored row bytes once and never builds a value, so
these tests pin what it must not change: the ``span`` contract of every
CQL type, the payload/zone/dictionary output against the decode-based
transposition it replaced (kept here as the oracle), and SHA-256 digests
of whole stored tables computed before the rewrite.
"""

import hashlib
import zlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.nosqldb.columnar import DICT_MAX_RATIO, DICT_MIN_ROWS, TAG_COLUMNAR, ZONE_DISTINCT_MAX
from repro.nosqldb.columnfamily import Column, ColumnFamily
from repro.nosqldb.engine import NoSQLEngine
from repro.nosqldb.errors import InvalidRequest
from repro.nosqldb.sstable import COMPRESSION_LEVEL, SSTable, compact
from repro.nosqldb.types import SetType, parse_type
from repro.storage.btree import encode_key
from repro.storage.encoding import (
    decode_text,
    encode_bytes,
    encode_bytes_vector,
    encode_text,
)
from repro.storage.varint import decode_varint, encode_varint

WIDE = (
    ("id", "int"),
    ("name", "text"),
    ("big", "bigint"),
    ("flag", "boolean"),
    ("score", "double"),
    ("kids", "set<int>"),
)


def wide_cf(compression=True) -> ColumnFamily:
    return ColumnFamily(
        "w",
        [Column(name, parse_type(spec)) for name, spec in WIDE],
        "id",
        compression=compression,
    )


def fixed_rows(start, stop):
    """Deterministic rows over every type: rotating cell order, sparse
    cells, a low-cardinality stretch (dictionary chunks), multi-byte
    UTF-8, a >= 64-byte text, ints beyond two varint bytes and one NaN
    (which must cost its block the ``score`` zone entry)."""
    for i in range(start, stop):
        cells = [
            ("id", i),
            ("name", ("stn-%d" % (i % 3)) if i < 300 else "café-東京-%d" % i),
            ("big", (i - 350) * 10**9),
            ("flag", i % 3 == 0),
            ("score", float("nan") if i == 413 else i / 7),
            ("kids", {i, i + 1, i * 1000}),
        ]
        if i % 50 == 0:
            cells[1] = ("name", "long-" * 20 + str(i))
        rotated = cells[i % 6:] + cells[:i % 6]
        yield {
            name: value
            for position, (name, value) in enumerate(rotated)
            if name == "id" or (i + position) % 4
        }


def stored_digest(table) -> str:
    """SHA-256 over the table's blocks as ``tag + uncompressed payload``;
    a compressed block must also be exactly zlib level 1 of that
    payload, so the digest pins the stored bytes without depending on
    which zlib build produced them."""
    digest = hashlib.sha256()
    for index in range(len(table._block_keys)):
        stored = table._block_data(index)
        payload = table._block_payload(index)
        if table.compressed:
            assert stored[1:] == zlib.compress(payload, COMPRESSION_LEVEL)
        else:
            assert stored[1:] == payload
        digest.update(stored[:1] + payload)
    return digest.hexdigest()


def flushed(compression, rows):
    cf = wide_cf(compression)
    for row in rows:
        cf.insert(row)
    cf.flush()
    (table,) = cf._sstables
    return cf, table


def memtable_items(rows):
    cf = wide_cf()
    for row in rows:
        cf.insert(row)
    return cf._codec, cf._memtable.sorted_items()


# ----------------------------------------------------------------------
# golden digests, computed at the commit before the single-pass encoder
# ----------------------------------------------------------------------
GOLDEN_ONE_ROW = "a4d021c818ce0363013d0f3431e6da1dbfe0b58080258a45e59a41e46b4d96bf"
GOLDEN_TABLE = "3bc986360d2a3c6249912043bcd60fc191c27ded1ad5686195e5d3dbba2fc913"
GOLDEN_COMPACTED = "637768a2f2c6d92cd9b379a153756de36fc09935034ac20b0dcd2eb877609897"


class TestGoldenDigests:
    @pytest.mark.parametrize("compression", [True, False])
    def test_one_row(self, compression):
        _, table = flushed(compression, fixed_rows(7, 8))
        assert table.stats().blocks == 1
        assert stored_digest(table) == GOLDEN_ONE_ROW

    @pytest.mark.parametrize("compression", [True, False])
    def test_columnar_sstable(self, compression):
        _, table = flushed(compression, fixed_rows(0, 700))
        stats = table.stats()
        assert stats.blocks > 4
        assert (stats.dict_chunks, stats.plain_chunks) == (12, 42)
        # zone maps are not stored: pin the one the NaN row (id 413) poisons
        assert [i for i, z in enumerate(table._zone_maps) if "score" not in z] == [4]
        assert stored_digest(table) == GOLDEN_TABLE

    def test_compaction_over_mixed_format_inputs(self):
        # Recorded when one input was row-major: the merged table is
        # re-emitted from cells, so columnar inputs store the same bytes.
        codec, old_items = memtable_items(fixed_rows(0, 400))
        _, new_items = memtable_items(fixed_rows(250, 700))
        old = SSTable(old_items, codec)
        new = SSTable(new_items, codec)
        assert old._block_data(0)[0] == new._block_data(0)[0] == TAG_COLUMNAR
        merged = compact([old, new], codec)
        assert len(merged) == 700
        assert stored_digest(merged) == GOLDEN_COMPACTED


# ----------------------------------------------------------------------
# the span contract: skipping a value == decoding it, minus the value
# ----------------------------------------------------------------------
texts = st.one_of(
    st.text(max_size=12),                                   # incl. multi-byte
    st.text(alphabet="aé東🚲", min_size=64, max_size=90),     # 2-byte length prefix
)
typed_values = st.one_of(
    st.tuples(st.just("int"), st.integers(-2**40, 2**40)),
    st.tuples(st.just("bigint"), st.one_of(
        st.integers(8192, 2**70), st.integers(-2**70, -8192),  # > 2 varint bytes
    )),
    st.tuples(st.just("text"), texts),
    st.tuples(st.just("boolean"), st.booleans()),
    st.tuples(st.just("double"), st.floats(allow_nan=True)),
    st.tuples(st.just("set<int>"), st.frozensets(st.integers(-2**40, 2**40), max_size=70)),
    st.tuples(st.just("set<text>"), st.frozensets(texts, max_size=4)),
)


@given(typed=typed_values, before=st.binary(max_size=9), after=st.binary(max_size=9))
@settings(max_examples=300, deadline=None)
def test_span_is_decode_end(typed, before, after):
    spec, value = typed
    cql_type = parse_type(spec)
    encoded = cql_type.encode(value)
    buffer = before + encoded + after
    offset = len(before)
    assert cql_type.span(buffer, offset) == offset + len(encoded)
    assert cql_type.span(buffer, offset) == cql_type.decode(buffer, offset)[1]


# ----------------------------------------------------------------------
# differential: the transposition the single-pass encoder replaced
# ----------------------------------------------------------------------
def oracle_encode_block(columns, items):
    """Split every row by *decoding* it, then regroup the cells by name
    with one scan of every row per column."""
    types = dict(columns)
    position = {name: i for i, (name, _) in enumerate(columns)}
    rows_cells = []
    for _, row in items:
        cells = []
        count, offset = decode_varint(row, 0)
        for _ in range(count):
            name, offset = decode_text(row, offset)
            ts, offset = row[offset:offset + 8], offset + 8
            _, end = types[name].decode(row, offset)
            cells.append((name, ts, row[offset:end]))
            offset = end
        rows_cells.append(cells)
    names = sorted({n for cells in rows_cells for n, _, _ in cells}, key=position.get)
    parts = [encode_varint(len(items))]
    for (key, _), cells in zip(items, rows_cells):
        parts += [encode_key(key), encode_varint(len(cells))]
        parts += [encode_varint(names.index(n)) for n, _, _ in cells]
    parts.append(encode_varint(len(names)))
    starts = []
    dict_chunks = 0
    zones = {
        name: (None, None, frozenset())
        for name, t in columns
        if name not in names and not isinstance(t, SetType)
    }
    for name in names:
        picked = [(ts, raw) for cells in rows_cells for n, ts, raw in cells if n == name]
        values = [raw for _, raw in picked]
        distinct = sorted(set(values), key=values.index)
        use_dict = (
            len(values) >= DICT_MIN_ROWS
            and len(distinct) <= len(values) // DICT_MAX_RATIO
        )
        starts.append(sum(map(len, parts)))
        parts += [encode_text(name), b"\x01" if use_dict else b"\x00"]
        parts += [ts for ts, _ in picked]
        if use_dict:
            dict_chunks += 1
            parts.append(encode_bytes_vector(distinct))
            parts += [encode_varint(distinct.index(raw)) for raw in values]
        else:
            parts += [encode_bytes(raw) for raw in values]
        decoded = [types[name].decode(raw, 0)[0] for raw in distinct]
        if isinstance(types[name], SetType) or any(v != v for v in decoded):
            continue  # unordered / NaN: no zone entry
        exact = frozenset(decoded) if len(decoded) <= ZONE_DISTINCT_MAX else None
        zones[name] = (min(decoded), max(decoded), exact)
    return (
        b"".join(parts), zones, dict_chunks, len(names) - dict_chunks,
        (tuple(names), tuple(starts)),
    )


cell_values = {
    "name": st.one_of(st.sampled_from(["a", "é"]), texts),
    "big": st.one_of(st.sampled_from([1, -1]), st.integers(-2**62, 2**62)),
    "flag": st.booleans(),
    "score": st.one_of(st.sampled_from([0.5, 2.0]), st.floats(allow_nan=True)),
    "kids": st.frozensets(st.integers(-10**6, 10**6), max_size=5),
}
mixed_rows = st.lists(
    st.tuples(
        st.integers(0, 60),
        st.permutations(["id", *cell_values]),                  # cell order
        st.fixed_dictionaries({}, optional=cell_values),        # sparse cells
    ),
    min_size=1,
    max_size=70,
)


@given(rows=mixed_rows)
@settings(max_examples=120, deadline=None)
def test_encoder_matches_decode_and_regroup_oracle(rows):
    codec, items = memtable_items(
        {name: id_ if name == "id" else cells[name] for name in order
         if name == "id" or name in cells}
        for id_, order, cells in rows
    )
    columns = [(name, parse_type(spec)) for name, spec in WIDE]
    assert codec.encode_block(
        [encode_key(key) for key, _ in items],
        [row for _, row in items],
        codec.zone_memo(),
    ) == oracle_encode_block(columns, items)


# ----------------------------------------------------------------------
# what the write loop rejects, and what the codec must not hide
# ----------------------------------------------------------------------
def cell(name, raw_value, ts=b"\x07" * 8):
    return encode_text(name) + ts + raw_value


def row_of(*cells):
    return encode_varint(len(cells)) + b"".join(cells)


class TestRefusals:
    """A row holds one cell per schema column: the write loop rejects
    anything else before it writes a byte, so every block the codec
    emits lists its rows exactly."""

    @pytest.fixture(autouse=True)
    def _armed(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")

    def session(self):
        session = NoSQLEngine().connect()
        session.execute("CREATE KEYSPACE k")
        session.execute("USE k")
        session.execute(
            "CREATE TABLE w (id int PRIMARY KEY, name text, big bigint, "
            "flag boolean, score double, kids set<int>)"
        )
        cf = session.engine.keyspace("k").table("w")
        cf.insert({"id": 1, "big": 1})
        cf.insert({"id": 3, "big": 3})
        return session, cf

    def rejected(self, cf, columns, values, match):
        """``insert_columns`` raises InvalidRequest and leaves the write
        clock, the commit log, the memtable and the row count as they
        were."""
        log = cf._commit_log

        def state():
            return (cf._write_clock, list(log.records()), cf._memtable.sorted_items(),
                    len(cf), cf.n_writes)

        before = state()
        with pytest.raises(InvalidRequest, match=match):
            cf.insert_columns(columns, values)
        assert state() == before

    def test_repeated_column_row_stays_readable(self):
        session, cf = self.session()
        big = cf.column("big")
        self.rejected(cf, [cf.column("id"), big, big], [[2], [5], [6]],
                      "'big' more than once")
        cf.flush()
        assert [row["id"] for row in session.execute("SELECT * FROM w").rows] == [1, 3]

    def test_unknown_column_is_rejected_before_anything_is_written(self):
        session, cf = self.session()
        session.execute("CREATE TABLE other (id int PRIMARY KEY, zz int)")
        foreign = session.engine.keyspace("k").table("other").column("zz")
        for stranger in (foreign, Column("zz", parse_type("int"))):
            self.rejected(cf, [cf.column("id"), stranger], [[2], [7]], "no column 'zz'")
        cf.flush()
        assert [row["id"] for row in session.execute("SELECT * FROM w").rows] == [1, 3]
        # Such bytes reaching the codec anyway are an internal error,
        # never a block in some other layout.
        alien = row_of(cell("big", encode_varint(1)), cell("zz", b"\x00"))
        with pytest.raises(ValueError, match="outside the schema"):
            SSTable([(1, alien)], cf._codec)

    def test_encoder_fault_is_not_swallowed(self, monkeypatch):
        from repro.nosqldb.columnar import ColumnarCodec

        def broken(self, encoded_keys, rows, decoded):
            raise RuntimeError("encoder bug")

        monkeypatch.setattr(ColumnarCodec, "encode_block", broken)
        with pytest.raises(RuntimeError, match="encoder bug"):
            SSTable([(1, row_of(cell("big", encode_varint(9))))], wide_cf()._codec)


class TestSanitizerHook:
    def lossy_codec(self, monkeypatch):
        from repro.nosqldb.columnar import ColumnarCodec

        real = ColumnarCodec.encode_block
        monkeypatch.setattr(
            ColumnarCodec, "encode_block",
            lambda self, keys, rows, decoded: real(self, keys, rows[::-1], decoded),
        )
        return memtable_items(fixed_rows(0, 20))

    def test_armed_build_rejects_a_block_that_lost_its_rows(self, monkeypatch):
        from repro.analysis.violations import InvariantViolationError

        codec, items = self.lossy_codec(monkeypatch)
        monkeypatch.setenv("REPRO_CHECK", "1")
        with pytest.raises(InvariantViolationError, match="sstable.columnar-roundtrip"):
            SSTable(items, codec)

    def test_unarmed_build_does_not_look(self, monkeypatch):
        codec, items = self.lossy_codec(monkeypatch)
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        table = SSTable(items, codec)
        assert table.stats().blocks == 1
