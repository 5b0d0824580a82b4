"""Columnar SSTable blocks: round-trip identity, zone-map skipping,
dictionary encoding, compaction under the checkers
(docs/columnar_blocks.md).

The columnar layout must be *invisible* except for performance: every
read path — point get, multi-get, scan, compaction input — produces the
same answers, and the same bytes, as the memtable's encoded rows the
blocks were flushed from.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.sstable_check import columnfamily_check
from repro.nosqldb.cache import NEGATIVE
from repro.nosqldb.columnar import TAG_COLUMNAR, ColumnarCodec, ColumnVectors
from repro.nosqldb.columnfamily import Column, ColumnFamily
from repro.nosqldb.engine import NoSQLEngine
from repro.nosqldb.sstable import SSTable
from repro.nosqldb.types import parse_type
from repro.query.pushdown import PushedCondition, PushedPredicate
from repro.storage.btree import encode_key
from tests.conftest import scan_rows


def make_cf(**kwargs) -> ColumnFamily:
    return ColumnFamily(
        "t",
        [
            Column("id", parse_type("int")),
            Column("name", parse_type("text")),
            Column("m", parse_type("int")),
        ],
        "id",
        **kwargs,
    )


def fill(cf, n=60, names=("a", "b", "c")):
    for i in range(n):
        cf.insert({"id": i, "name": names[i % len(names)], "m": i})


def bound_eq(column, value):
    pred = PushedPredicate(
        (PushedCondition(column, "=", lambda params: params[0], f"{column} = ?0"),)
    )
    return pred.bind((value,))


# ----------------------------------------------------------------------
# property: memtable rows and columnar blocks are byte-identical through
# every read path
# ----------------------------------------------------------------------
rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),                    # id
        st.one_of(st.none(), st.text(max_size=8)),                 # name
        st.one_of(st.none(), st.integers(-10**6, 10**6)),          # m
    ),
    min_size=1,
    max_size=80,
)


@given(rows=rows_strategy)
@settings(max_examples=60, deadline=None)
def test_formats_agree_byte_for_byte(rows):
    """The memtable's row-major bytes against the columnar blocks they
    are flushed into: the same entries, the same decoded reads."""
    cf = make_cf()
    for id_, name, m in rows:
        cf.insert({"id": id_, "name": name, "m": m})
    memtable_items = cf._memtable.sorted_items()
    scanned = sorted(scan_rows(cf), key=lambda row: row["id"])  # the table scans in key order
    fetched = [cf.get(id_) for id_, _, _ in rows]
    cf.flush()
    (table,) = cf._sstables
    assert list(table.items()) == memtable_items
    assert table._block_keys[0] == memtable_items[0][0]
    assert scan_rows(cf) == scanned
    assert [cf.get(id_) for id_, _, _ in rows] == fetched
    assert all(table._block_data(i)[0] == TAG_COLUMNAR for i in range(len(table._blocks)))


@given(rows=rows_strategy)
@settings(max_examples=40, deadline=None)
def test_codec_block_roundtrip_is_exact(rows):
    cf = make_cf()
    for id_, name, m in rows:
        cf.insert({"id": id_, "name": name, "m": m})
    cf.flush()
    table = cf._sstables[0]
    codec = cf._codec
    for index in range(len(table._blocks)):
        assert table._block_data(index)[0] == TAG_COLUMNAR
        payload = table._block_payload(index)
        vectors = codec.decode_block(payload)
        keys, encoded_rows = vectors.all_rows()
        # decode -> rematerialize -> re-encode reproduces the payload
        reencoded, zones, _, _, layout = codec.encode_block(
            [encode_key(key) for key in keys], encoded_rows, codec.zone_memo()
        )
        assert reencoded == payload
        assert zones == table._zone_maps[index]
        # the chunk layout kept beside the block is the one a walk of
        # the bare payload finds, and decoding through it changes nothing
        assert layout == table._layouts[index] == (vectors.names, vectors._starts)
        assert codec.decode_block(payload, layout).all_rows() == (keys, encoded_rows)


# ----------------------------------------------------------------------
# zone maps and dictionary encoding
# ----------------------------------------------------------------------
class TestZoneMaps:
    def test_scan_skips_refuted_blocks(self):
        cf = make_cf()
        # sorted key order puts all 'z' names in the trailing blocks
        # (enough rows for several columnar-sized blocks)
        for i in range(2000):
            cf.insert({"id": i, "name": "a" if i < 1000 else "z", "m": i})
        cf.flush()
        table = cf._sstables[0]
        before = table.blocks_skipped
        bound = bound_eq("name", "z")
        batches = list(table.scan_batches(bound))
        rows = [row for batch in batches for row in batch.rows()]
        assert {row["name"] for row in rows} == {"z"}
        assert len(rows) == 1000
        assert table.blocks_skipped > before
        # every row is either emitted or counted as pruned, never both
        assert sum(batch.count() for batch in batches) + bound.rows_pruned == 2000

    def test_scan_batches_expose_vectors_without_building_rows(self):
        cf = make_cf()
        fill(cf, 60)
        cf.flush()
        table = cf._sstables[0]
        (batch,) = table.scan_batches(bound_eq("name", "b"))
        assert batch.n == 60 and batch.sel == list(range(1, 60, 3))
        # columns are addressed by position; values() applies the selection
        assert batch.column("m") == list(range(60))
        assert list(batch.values("m")) == list(range(1, 60, 3))
        # late materialization: only the named columns, only selected rows
        assert batch.rows(("id", "m"))[:2] == [{"id": 1, "m": 1}, {"id": 4, "m": 4}]
        assert batch.rows()[0] == {"id": 1, "name": "b", "m": 1}
        # an unpushed scan selects everything and still builds no row
        (whole,) = table.scan_batches(None)
        assert whole.sel is None and whole.count() == 60

    def test_recording_layer_may_not_skip_refuted_blocks(self):
        # ``record`` (an older layer overlaps) forces a zone-refuted
        # block to be read for its keys; without it the block is skipped.
        cf = make_cf()
        fill(cf, 30)
        cf.flush()
        table = cf._sstables[0]
        seen = set()
        bound = bound_eq("m", -1)
        assert list(table.scan_batches(bound, None, seen)) == []
        assert seen == set(range(30)) and bound.blocks_skipped == 0
        assert bound.rows_pruned == 30
        bound = bound_eq("m", -1)
        assert list(table.scan_batches(bound)) == []
        assert bound.blocks_skipped == 1 and bound.rows_pruned == 30

    def test_zone_skip_counts_surface_in_stats(self):
        cf = make_cf()
        fill(cf, 120)
        cf.flush()
        scan_rows(cf, bound_eq("m", -1))  # refutes every block
        stats = cf.stats()
        assert stats.columnar_blocks > 0
        assert stats.blocks_skipped > 0

    def test_pruned_rows_still_shadow_older_layers(self):
        # A newer layer's non-matching row must hide the older layer's
        # matching one — zone skips may only drop oldest-layer blocks.
        cf = make_cf()
        cf.insert({"id": 1, "name": "old", "m": 1})
        cf.flush()
        cf.insert({"id": 1, "name": "new", "m": 1})
        cf.flush()
        assert scan_rows(cf, bound_eq("name", "old")) == []
        # ...and so must a newer *memtable* version that fails it
        cf.insert({"id": 1, "name": "newest", "m": 1})
        assert scan_rows(cf, bound_eq("name", "new")) == []
        assert [row["name"] for row in scan_rows(cf)] == ["newest"]

    def test_key_disjoint_layers_keep_no_shadow_bookkeeping(self, monkeypatch):
        # Two stored cubes occupy disjoint id ranges: neither layer can
        # shadow the other, so no key is checked or recorded and the
        # *newer* layer may skip its zone-refuted blocks too.
        cf = make_cf()
        for i in range(40):
            cf.insert({"id": i, "name": "old", "m": i})
        cf.flush()
        for i in range(100, 140):
            cf.insert({"id": i, "name": "new", "m": i})
        cf.flush()
        older, newer = cf._sstables
        assert older.key_range() == (0, 39) and newer.key_range() == (100, 139)
        calls = []
        original = SSTable.scan_batches

        def spy(self, bound, shadow=None, record=None):
            calls.append((shadow, record))
            return original(self, bound, shadow, record)

        monkeypatch.setattr(SSTable, "scan_batches", spy)
        bound = bound_eq("name", "old")
        assert len(scan_rows(cf, bound)) == 40
        assert calls == [(None, None), (None, None)]
        assert bound.blocks_skipped == 1  # the newer layer's only block
        # overlapping ranges bring the bookkeeping back
        cf.insert({"id": 20, "name": "old", "m": -1})
        cf.flush()
        calls.clear()
        assert len(scan_rows(cf, bound_eq("name", "old"))) == 40
        newest, middle, oldest = calls
        assert newest[0] is None and newest[1] is not None   # records only
        assert middle == (None, None)                          # disjoint from both
        assert oldest[0] is not None and oldest[1] is None   # checks only

    def test_tombstones_widen_a_layers_key_range(self):
        cf = make_cf()
        fill(cf, 10)
        cf.flush()
        cf.insert({"id": 50, "name": "x", "m": 50})
        cf.delete(3)
        cf.flush()
        assert cf._sstables[1].key_range() == (3, 50)
        assert sorted(row["id"] for row in scan_rows(cf)) == [0, 1, 2, 4, 5, 6, 7, 8, 9, 50]
        assert len(scan_rows(cf, bound_eq("m", 3))) == 0

    def test_all_null_column_is_skippable(self):
        cf = make_cf()
        for i in range(40):
            cf.insert({"id": i, "name": None, "m": i})
        cf.flush()
        bound = bound_eq("name", "x")
        assert scan_rows(cf, bound) == []
        assert bound.blocks_skipped > 0


class TestDictionaries:
    def test_low_cardinality_column_dictionary_encodes(self):
        cf = make_cf()
        fill(cf, 120, names=("x", "y"))
        cf.flush()
        stats = cf._sstables[0].stats()
        assert stats.dict_chunks > 0
        assert 0.0 < stats.dict_hit_ratio <= 1.0

    def test_unique_column_stays_plain(self):
        cf = make_cf()
        for i in range(60):
            cf.insert({"id": i, "name": f"unique-{i}", "m": i})
        cf.flush()
        # 'name' and 'm' are unique per row; only low-cardinality chunks
        # may dictionary-encode, so plain chunks must dominate.
        stats = cf._sstables[0].stats()
        assert stats.plain_chunks > stats.dict_chunks


# ----------------------------------------------------------------------
# fetches: one row, not the block
# ----------------------------------------------------------------------
class TestFetch:
    """A key found in a columnar block leaves storage as a position in
    the cached vectors: no row is re-encoded, only the chunks of the
    columns the statement names are parsed, and a fetched column is
    decoded at the fetched positions (docs/read_path.md)."""

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = {"materialize": [], "chunks": [], "decoded": []}
        materialize, parse_chunk = ColumnVectors.materialize, ColumnVectors._parse_chunk
        decode_value = ColumnarCodec.decode_value

        def spy_materialize(self, i):
            calls["materialize"].append(self.keys[i])
            return materialize(self, i)

        def spy_parse_chunk(self, col_index, offset):
            if self.names:  # (a checker's layout-less walk has none yet)
                calls["chunks"].append(self.names[col_index])
            return parse_chunk(self, col_index, offset)

        def spy_decode_value(self, name, raw):
            calls["decoded"].append(name)
            return decode_value(self, name, raw)

        monkeypatch.setattr(ColumnVectors, "materialize", spy_materialize)
        monkeypatch.setattr(ColumnVectors, "_parse_chunk", spy_parse_chunk)
        monkeypatch.setattr(ColumnarCodec, "decode_value", spy_decode_value)
        return calls

    def session(self, monkeypatch, spy, row_cache_bytes):
        monkeypatch.setenv("REPRO_ROW_CACHE_BYTES", str(row_cache_bytes))
        session = NoSQLEngine().connect()
        session.execute("CREATE KEYSPACE k")
        session.execute("USE k")
        session.execute("CREATE TABLE t (id int PRIMARY KEY, name text, m int, tags set<int>)")
        table = session.engine.keyspace("k").table("t")
        for i in range(60):
            table.insert({"id": i, "name": "abc"[i % 3], "m": i, "tags": {i, i + 1}})
        table.flush()
        assert table.stats().columnar_blocks == 1
        for seen in spy.values():  # (REPRO_CHECK=1 decodes what it seals)
            seen.clear()
        return session, table

    def test_cold_point_read_touches_one_chunk_at_one_position(self, monkeypatch, spy):
        session, table = self.session(monkeypatch, spy, row_cache_bytes=0)
        assert session.execute("SELECT tags FROM t WHERE id = 7").rows == [{"tags": {7, 8}}]
        assert spy == {"materialize": [], "chunks": ["tags"], "decoded": ["tags"]}

    def test_cold_multi_get_parses_the_named_chunks_only(self, monkeypatch, spy):
        session, table = self.session(monkeypatch, spy, row_cache_bytes=0)
        rows = session.execute(
            "SELECT m FROM t WHERE id IN (9, 3, 99, 4, 9) AND name = 'a' ALLOW FILTERING"
        ).rows
        assert rows == [{"m": 9}, {"m": 3}, {"m": 9}]
        assert spy["materialize"] == []
        assert sorted(spy["chunks"]) == ["m", "name"]
        # the fetch is two runs of ascending positions, [9] and [3, 4, 9];
        # each run decodes a column once per distinct value at its
        # positions: name a | a, b and m 9 | 3, 9 — out of a block of sixty
        assert sorted(spy["decoded"]) == ["m"] * 3 + ["name"] * 3
        # a scan that already left a whole typed vector is reused as is
        scan_rows(table)
        del spy["decoded"][:]
        assert session.execute("SELECT m FROM t WHERE id = 5").rows == [{"m": 5}]
        assert spy["decoded"] == []

    def test_row_cache_is_filled_with_the_fetched_rows_only(self, monkeypatch, spy):
        session, table = self.session(monkeypatch, spy, row_cache_bytes=1 << 20)
        text = "SELECT name FROM t WHERE id IN (9, 3, 99, 9)"
        expected = [{"name": "a"}, {"name": "a"}, {"name": "a"}]
        assert session.execute(text).rows == expected
        # a miss decodes its rows whole at their positions, and
        # rematerializes nothing
        assert spy["materialize"] == []
        assert sorted(spy["decoded"]) == sorted(["id", "name", "m", "tags"] * 2)
        cached = dict(table._row_cache.items())
        assert set(cached) == {3, 9, 99} and cached[99] is NEGATIVE
        assert cached[3] == [3, "a", 3, {3, 4}]
        # warm: served from the row cache's decoded rows, nothing decoded
        del spy["decoded"][:]
        assert session.execute(text).rows == expected
        assert spy == {"materialize": [], "chunks": ["id", "name", "m", "tags"], "decoded": []}
        assert not columnfamily_check(table).violations

    def test_liveness_probe_never_materializes(self, monkeypatch, spy):
        # insert/delete keep the live-row counter by asking each layer
        # where it holds the keys — a directory lookup, not a row read.
        session, table = self.session(monkeypatch, spy, row_cache_bytes=0)
        table.insert({"id": 5, "name": "z", "m": -5})      # overwrite
        table.insert({"id": 100, "name": "new", "m": 100})  # fresh key
        table.delete(6)
        table.delete(200)                                   # absent
        assert len(table) == 60
        assert spy == {"materialize": [], "chunks": [], "decoded": []}
        assert set(table._sstables[0].locate((7, 200))) == {7}


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------
class TestMixedCompaction:
    """Flushed tables of overlapping keys compacted, checkers armed."""

    @pytest.fixture(autouse=True)
    def _armed(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")

    def test_family_compaction_under_checkers(self):
        cf = make_cf()
        # force enough flushes to trigger compaction (threshold 4)
        for round_ in range(5):
            for i in range(30):
                cf.insert({"id": i, "name": f"r{round_}", "m": round_ * 100 + i})
            cf.flush()
        assert len(cf._sstables) < 5  # compaction ran
        assert {r["name"] for r in scan_rows(cf)} == {"r4"}
        report = columnfamily_check(cf)
        assert report.ok, report.format_lines()
