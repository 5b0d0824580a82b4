"""SSTable and column-family invariants, including injected corruption."""

from repro.analysis.sstable_check import columnfamily_check, encode_row, sstable_check
from repro.nosqldb.columnfamily import Column, ColumnFamily
from repro.nosqldb.commitlog import CommitLog
from repro.nosqldb.sstable import SSTable, SSTableStats
from repro.nosqldb.types import parse_type


def make_sstable(n=200, compressed=True, **kwargs) -> SSTable:
    family = make_family(0)
    items = [
        (i, encode_row(family, {"id": i, "label": f"row{i}-" + "x" * 60, "measure": i}, i))
        for i in range(n)
    ]
    return SSTable(items, family._codec, compressed=compressed, **kwargs)


def make_family(n=50, commit_log=None) -> ColumnFamily:
    family = ColumnFamily(
        "cells",
        [
            Column("id", parse_type("int")),
            Column("label", parse_type("text")),
            Column("measure", parse_type("int")),
        ],
        primary_key="id",
        commit_log=commit_log,
    )
    family.create_index("cells_label", "label")
    for i in range(n):
        family.insert({"id": i, "label": f"m{i % 7}", "measure": i})
    return family


def rules_of(report):
    return {violation.rule for violation in report.violations}


class TestCleanTables:
    def test_compressed_table_passes(self):
        report = sstable_check(make_sstable())
        assert report.ok, "\n".join(report.format_lines())
        assert report.n_checks > 0

    def test_uncompressed_table_passes(self):
        assert sstable_check(make_sstable(compressed=False)).ok

    def test_on_disk_table_passes(self, tmp_path):
        table = make_sstable(path=tmp_path / "cells-1-Data.db")
        assert sstable_check(table).ok


class TestCorruption:
    def test_corrupt_block_flagged(self):
        # Satellite check: hand-corrupt a stored block; the checker must
        # notice instead of silently decoding garbage.
        table = make_sstable()
        table._blocks[0] = b"\x00not a zlib stream"
        assert "sstable.corrupt-block" in rules_of(sstable_check(table))

    def test_truncated_block_flagged(self):
        table = make_sstable(compressed=False)
        table._blocks[0] = table._blocks[0][:-3]
        assert "sstable.corrupt-block" in rules_of(sstable_check(table))

    def test_unknown_format_tag_flagged(self):
        # A tag other than the columnar 'C' is not a block this engine
        # wrote: reported, never parsed as some other layout.
        table = make_sstable()
        table._blocks[1] = b"R" + table._blocks[1][1:]
        report = sstable_check(table)
        assert "sstable.corrupt-block" in rules_of(report)
        assert any("format tag 0x52" in v.message for v in report.violations)

    def test_wrong_row_count_flagged(self):
        table = make_sstable()
        table._n_rows += 1
        assert "sstable.row-count" in rules_of(sstable_check(table))

    def test_wrong_block_index_flagged(self):
        table = make_sstable()
        assert len(table._block_keys) >= 2
        table._block_keys[1] = -42
        report = sstable_check(table)
        assert rules_of(report) & {"sstable.block-index", "sstable.block-order"}


class TestColumnFamily:
    def test_unflushed_family_passes(self):
        report = columnfamily_check(make_family())
        assert report.ok, "\n".join(report.format_lines())

    def test_flushed_family_passes(self):
        family = make_family()
        family.flush()
        assert columnfamily_check(family).ok

    def test_commitlog_agreement(self):
        log = CommitLog()
        family = make_family(commit_log=log)
        assert columnfamily_check(family).ok
        # A memtable write that skipped the log: replay would lose it.
        family._memtable.put(999, encode_row(family, {"id": 999, "measure": 1}))
        assert "sstable.commitlog-agreement" in rules_of(columnfamily_check(family))

    def test_index_agreement(self):
        family = make_family()
        family.flush()
        family._indexes["label"]._tree.insert(("zz", 999), None)
        assert "sstable.index-agreement" in rules_of(columnfamily_check(family))

    def test_live_count_drift_flagged(self):
        family = make_family()
        family.flush()
        family._n_live += 1
        assert "sstable.live-count" in rules_of(columnfamily_check(family))


class TestStats:
    def test_stats_match_structure(self):
        table = make_sstable()
        stats = table.stats()
        assert isinstance(stats, SSTableStats)
        assert stats.rows == len(table) == 200
        assert stats.blocks == len(table._block_keys)
        assert stats.size_bytes == table.size_bytes
        assert not stats.on_disk
        assert stats.rows_per_block > 0

    def test_on_disk_stats(self, tmp_path):
        table = make_sstable(path=tmp_path / "cells-1-Data.db")
        stats = table.stats()
        assert stats.on_disk
        assert stats.data_bytes > 0

    def test_repr(self):
        assert repr(make_sstable()).startswith("SSTable(rows=200")
