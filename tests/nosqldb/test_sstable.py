"""SSTables: block building, point reads, scans, compaction, bloom."""

import random

import pytest

from repro.analysis.sstable_check import decode_row, encode_row
from repro.nosqldb.columnfamily import Column, ColumnFamily
from repro.nosqldb.errors import CorruptBlock, NoSQLError
from repro.nosqldb.sstable import BloomFilter, SSTable, compact
from repro.nosqldb.types import parse_type
from tests.conftest import scan_rows

FAMILY = ColumnFamily(
    "t", [Column("id", parse_type("text")), Column("v", parse_type("text"))], "id"
)
CODEC = FAMILY._codec


def row(value: str) -> bytes:
    """An encoded row holding ``value`` (keys live beside rows, not in them)."""
    return encode_row(FAMILY, {"v": value})


def table_of(items, **kwargs) -> SSTable:
    return SSTable([(key, row(value)) for key, value in items], CODEC, **kwargs)


def read(table, key):
    """The value of the row ``table`` holds for ``key`` (or None)."""
    hit = table.locate((key,)).get(key)
    return None if hit is None else decode_row(FAMILY, hit[0].materialize(hit[1]))["v"]


def make_items(n, prefix="row"):
    return [(i, f"{prefix}{i}") for i in range(n)]


class TestBuildAndRead:
    def test_point_reads(self):
        table = table_of(make_items(500))
        assert read(table, 0) == "row0"
        assert read(table, 499) == "row499"
        assert read(table, 777) is None

    def test_uncompressed_mode(self):
        table = table_of(make_items(100), compressed=False)
        assert read(table, 50) == "row50"

    def test_scan_in_order(self):
        table = table_of(make_items(300))
        assert [k for k, _ in table.items()] == list(range(300))

    def test_len(self):
        assert len(table_of(make_items(42))) == 42

    def test_empty_table(self):
        table = table_of([])
        assert read(table, 1) is None
        assert list(table.items()) == []

    def test_string_keys(self):
        items = sorted((f"k{i:03d}", "v") for i in range(50))
        table = table_of(items)
        assert read(table, "k025") == "v"
        assert read(table, "zzz") is None

    def test_key_before_first_block(self):
        table = table_of([(10, "v")])
        assert read(table, 1) is None


class TestSize:
    def test_compression_reduces_size(self):
        items = [(i, "A" * 200) for i in range(200)]
        compressed = table_of(items, compressed=True)
        plain = table_of(items, compressed=False)
        assert compressed.size_bytes < plain.size_bytes

    def test_compression_ratio_on_a_stored_cube(self, bike_bundle):
        """zlib-1 over 1 KiB blocks approximates LZ4 on feed data: the
        NoSQL-DWARF store of a bike cube shrinks to 0.15-0.6 of its size
        in tables created ``WITH COMPRESSION = false`` (0.22 here)."""
        from repro.mapping.nosql_dwarf import NoSQLDwarfMapper

        sizes = {}
        for options in ("", " WITH COMPRESSION = false"):
            mapper = NoSQLDwarfMapper()
            mapper.session.execute(f"CREATE KEYSPACE {mapper.namespace}")
            mapper.session.execute(f"USE {mapper.namespace}")
            for table in mapper.mapping.tables:  # install() keeps these tables
                mapper.session.execute(table.ddl() + options)
            mapper.install()
            mapper.store(bike_bundle[2], probe_size=False)
            sizes[options] = mapper.size_bytes()
        assert 0.15 <= sizes[""] / sizes[" WITH COMPRESSION = false"] <= 0.6, sizes

    def test_size_positive_even_when_empty(self):
        assert table_of([]).size_bytes > 0


class TestTombstones:
    def test_tombstoned_key_reads_none(self):
        table = table_of(make_items(10), tombstones=frozenset({3}))
        assert table.is_deleted(3)
        assert read(table, 3) is None


class TestCompact:
    def test_newest_wins(self):
        old = table_of([(1, "old"), (2, "keep")])
        new = table_of([(1, "new")])
        merged = compact([old, new], CODEC)
        assert read(merged, 1) == "new"
        assert read(merged, 2) == "keep"

    def test_tombstone_removes_row(self):
        old = table_of([(1, "v"), (2, "w")])
        deleter = table_of([], tombstones=frozenset({1}))
        merged = compact([old, deleter], CODEC)
        assert read(merged, 1) is None
        assert read(merged, 2) == "w"
        assert not merged.tombstones  # applied and discarded

    def test_reinsert_after_tombstone_survives(self):
        first = table_of([(1, "a")])
        second = table_of([], tombstones=frozenset({1}))
        third = table_of([(1, "b")])
        merged = compact([first, second, third], CODEC)
        assert read(merged, 1) == "b"

    def test_result_sorted(self):
        left = table_of([(1, "a"), (5, "e")])
        right = table_of([(3, "c")])
        merged = compact([left, right], CODEC)
        assert [k for k, _ in merged.items()] == [1, 3, 5]


class TestFormatTag:
    """Every block is tagged ``'C'``; a block with another tag is not one
    this engine wrote and is rejected, never parsed as something else."""

    def flipped(self, tmp_path=None):
        table = table_of(make_items(1500), path=tmp_path and tmp_path / "t-1-Data.db")
        assert len(table._block_keys) >= 2
        if tmp_path is None:
            table._blocks[1] = b"R" + table._blocks[1][1:]
        else:
            with open(table._path, "r+b") as handle:
                handle.seek(table._offsets[1][0])
                handle.write(b"R")
        return table

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_a_flipped_tag_fails_reads_and_compaction(self, tmp_path, on_disk):
        table = self.flipped(tmp_path if on_disk else None)
        key = table._block_keys[1]
        assert read(table, 0) == "row0"  # the intact block still reads
        with pytest.raises(CorruptBlock, match="format tag 0x52"):
            table.locate((key,))
        with pytest.raises(CorruptBlock):
            list(table.scan_batches(None))
        with pytest.raises(CorruptBlock):
            compact([table], CODEC)
        assert issubclass(CorruptBlock, NoSQLError)

    def test_a_flipped_tag_fails_a_family_read(self):
        family = ColumnFamily(
            "f", [Column("id", parse_type("int")), Column("v", parse_type("text"))], "id"
        )
        for start in (0, 20):  # two tables, so that compaction reads both
            for i in range(start, start + 20):
                family.insert({"id": i, "v": f"v{i}"})
            family.flush()
        table = family._sstables[0]
        table._blocks[0] = b"R" + table._blocks[0][1:]
        assert family.get(25) == {"id": 25, "v": "v25"}
        with pytest.raises(CorruptBlock):
            family.get(3)
        with pytest.raises(CorruptBlock):
            scan_rows(family)
        with pytest.raises(CorruptBlock):
            family.compact()


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(1000)
        bloom.add_all(range(1000))
        assert all(bloom.might_contain(key) for key in range(1000))

    def test_mostly_rejects_absent(self):
        bloom = BloomFilter(1000)
        bloom.add_all(range(1000))
        false_positives = sum(
            1 for key in range(10_000, 20_000) if bloom.might_contain(key)
        )
        assert false_positives < 500  # ~1% expected, allow slack

    def test_size_scales_with_keys(self):
        assert BloomFilter(10_000).size_bytes > BloomFilter(10).size_bytes

    def test_probes_find_every_added_key_at_the_pinned_bits(self):
        rng = random.Random(44)
        keys = (
            [rng.randrange(-2 ** 63, 2 ** 63) for _ in range(300)]
            + ["".join(rng.choice("abcé\u4e2d") for _ in range(rng.randrange(12)))
               for _ in range(300)]
            + [(rng.randrange(1000), f"k{rng.randrange(1000)}") for _ in range(300)]
        )
        bloom = BloomFilter(len(keys))
        bloom.add_all(keys)
        assert all(bloom.might_contain(key) for key in keys)
        # The bits are those of double hashing h1 + i*h2 mod m over the
        # multiplicatively mixed hash: a reference computation pins them.
        n_bits = max(64, len(keys) * 10)
        expected = bytearray((n_bits + 7) // 8)
        for key in keys:
            mixed = (hash(key) * 0x9E3779B97F4A7C15) % 2 ** 64
            h1, h2 = mixed // 2 ** 32, mixed % 2 ** 32 | 1
            for i in range(3):
                position = (h1 + i * h2) % n_bits
                expected[position // 8] |= 1 << position % 8
        assert bloom._bits == expected
