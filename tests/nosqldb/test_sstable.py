"""SSTables: block building, point reads, scans, compaction, bloom."""

import pytest

from repro.nosqldb.sstable import BloomFilter, SSTable, compact


def read(table, key):
    """The encoded row a row-format table holds for ``key`` (or None)."""
    return table.locate((key,)).get(key)


def make_items(n, prefix="row"):
    return [(i, f"{prefix}{i}".encode()) for i in range(n)]


class TestBuildAndRead:
    def test_point_reads(self):
        table = SSTable(make_items(500))
        assert read(table, 0) == b"row0"
        assert read(table, 499) == b"row499"
        assert read(table, 777) is None

    def test_uncompressed_mode(self):
        table = SSTable(make_items(100), compressed=False)
        assert read(table, 50) == b"row50"

    def test_scan_in_order(self):
        table = SSTable(make_items(300))
        assert [k for k, _ in table.items()] == list(range(300))

    def test_len(self):
        assert len(SSTable(make_items(42))) == 42

    def test_empty_table(self):
        table = SSTable([])
        assert read(table, 1) is None
        assert list(table.items()) == []

    def test_string_keys(self):
        items = sorted((f"k{i:03d}", b"v") for i in range(50))
        table = SSTable(items)
        assert read(table, "k025") == b"v"
        assert read(table, "zzz") is None

    def test_key_before_first_block(self):
        table = SSTable([(10, b"v")])
        assert read(table, 1) is None


class TestSize:
    def test_compression_reduces_size(self):
        items = [(i, b"A" * 200) for i in range(200)]
        compressed = SSTable(items, compressed=True)
        plain = SSTable(items, compressed=False)
        assert compressed.size_bytes < plain.size_bytes

    def test_size_positive_even_when_empty(self):
        assert SSTable([]).size_bytes > 0


class TestTombstones:
    def test_tombstoned_key_reads_none(self):
        table = SSTable(make_items(10), tombstones=frozenset({3}))
        assert table.is_deleted(3)
        assert read(table, 3) is None


class TestCompact:
    def test_newest_wins(self):
        old = SSTable([(1, b"old"), (2, b"keep")])
        new = SSTable([(1, b"new")])
        merged = compact([old, new])
        assert read(merged, 1) == b"new"
        assert read(merged, 2) == b"keep"

    def test_tombstone_removes_row(self):
        old = SSTable([(1, b"v"), (2, b"w")])
        deleter = SSTable([], tombstones=frozenset({1}))
        merged = compact([old, deleter])
        assert read(merged, 1) is None
        assert read(merged, 2) == b"w"
        assert not merged.tombstones  # applied and discarded

    def test_reinsert_after_tombstone_survives(self):
        first = SSTable([(1, b"a")])
        second = SSTable([], tombstones=frozenset({1}))
        third = SSTable([(1, b"b")])
        merged = compact([first, second, third])
        assert read(merged, 1) == b"b"

    def test_result_sorted(self):
        left = SSTable([(1, b"a"), (5, b"e")])
        right = SSTable([(3, b"c")])
        merged = compact([left, right])
        assert [k for k, _ in merged.items()] == [1, 3, 5]


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
