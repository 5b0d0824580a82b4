"""ColumnFamily: write path, reads across memtable/SSTables, indexes."""

import pytest

from repro.analysis.sstable_check import decode_row, encode_row
from repro.nosqldb.columnfamily import Column, ColumnFamily
from repro.nosqldb.errors import AlreadyExists, InvalidRequest
from repro.nosqldb.types import parse_type
from tests.conftest import scan_rows


def indexed(cf: ColumnFamily, column: str, value) -> list:
    """The rows whose indexed ``column`` equals ``value``."""
    return [row for batch in cf.get_batches((value,), index=column) for row in batch.rows()]


def make_cf(**kwargs) -> ColumnFamily:
    return ColumnFamily(
        "cells",
        [
            Column("id", parse_type("int")),
            Column("key", parse_type("text")),
            Column("measure", parse_type("int")),
            Column("leaf", parse_type("boolean")),
            Column("children", parse_type("set<int>")),
        ],
        primary_key="id",
        **kwargs,
    )


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(InvalidRequest):
            ColumnFamily("t", [Column("a", parse_type("int"))] * 2, "a")

    def test_pk_must_be_column(self):
        with pytest.raises(InvalidRequest):
            ColumnFamily("t", [Column("a", parse_type("int"))], "zz")

    def test_column_lookup(self):
        cf = make_cf()
        assert cf.column("key").name == "key"
        with pytest.raises(InvalidRequest):
            cf.column("nope")


class TestWriteRead:
    def test_insert_get(self):
        cf = make_cf()
        cf.insert({"id": 1, "key": "Fenian St", "measure": 3, "leaf": True})
        row = cf.get(1)
        assert row["key"] == "Fenian St"
        assert row["children"] is None  # absent column decodes as null

    def test_upsert_overwrites(self):
        cf = make_cf()
        cf.insert({"id": 1, "measure": 1})
        cf.insert({"id": 1, "measure": 2})
        assert cf.get(1)["measure"] == 2
        assert len(cf) == 1

    def test_missing_pk_rejected(self):
        with pytest.raises(InvalidRequest, match="primary key"):
            make_cf().insert({"key": "x"})

    def test_unknown_column_rejected(self):
        with pytest.raises(InvalidRequest):
            make_cf().insert({"id": 1, "bogus": 2})

    def test_type_mismatch_rejected(self):
        with pytest.raises(InvalidRequest):
            make_cf().insert({"id": 1, "measure": "three"})

    def test_set_column_round_trips(self):
        cf = make_cf()
        cf.insert({"id": 1, "children": {4, 5, 6}})
        assert cf.get(1)["children"] == {4, 5, 6}

    def test_read_spans_memtable_and_sstables(self):
        cf = make_cf()
        cf.insert({"id": 1, "measure": 10})
        cf.flush()
        cf.insert({"id": 2, "measure": 20})
        assert cf.get(1)["measure"] == 10
        assert cf.get(2)["measure"] == 20

    def test_newest_version_wins_across_sstables(self):
        cf = make_cf()
        cf.insert({"id": 1, "measure": 1})
        cf.flush()
        cf.insert({"id": 1, "measure": 2})
        cf.flush()
        assert cf.get(1)["measure"] == 2
        assert len(cf) == 1

    def test_scan_sees_all_live_rows(self):
        cf = make_cf()
        for i in range(10):
            cf.insert({"id": i, "measure": i})
        cf.flush()
        for i in range(10, 20):
            cf.insert({"id": i, "measure": i})
        assert {row["id"] for row in scan_rows(cf)} == set(range(20))


class TestDelete:
    @pytest.mark.parametrize("key", ["x", 1.5, True, None])
    def test_a_key_of_the_wrong_type_is_refused_before_the_log(self, key):
        from repro.nosqldb.commitlog import CommitLog

        log = CommitLog()
        cf = make_cf(commit_log=log)
        cf.insert({"id": 1, "measure": 5})
        cf.flush()
        cf.insert({"id": 2, "measure": 6})
        logged = list(log.records())
        with pytest.raises(InvalidRequest, match="expected int, got"):
            cf.delete(key)
        assert list(log.records()) == logged
        assert not cf._memtable.tombstones
        cf.flush()
        assert sorted(row["id"] for row in scan_rows(cf)) == [1, 2]
        assert len(cf) == 2

    @pytest.mark.parametrize("key_type, key, match", [
        ("text", "\ud800", "not valid UTF-8"),
        ("int", 2 ** 40, "out of range for int"),
        ("double", float("nan"), "primary key column 'id' cannot be NaN"),
    ])
    def test_a_key_an_insert_refuses_is_refused_before_the_log(self, key_type, key, match):
        from repro.nosqldb.commitlog import CommitLog

        log = CommitLog()
        cf = ColumnFamily("u", [Column("id", parse_type(key_type)), Column("v", parse_type("int"))],
                          primary_key="id", commit_log=log)
        with pytest.raises(InvalidRequest, match=match):
            cf.delete(key)
        with pytest.raises(InvalidRequest, match=match):
            cf.update(key, {"v": 1})
        assert list(log.records()) == []
        assert not cf._memtable.tombstones and len(cf._memtable) == 0

    def test_delete_from_memtable(self):
        cf = make_cf()
        cf.insert({"id": 1, "measure": 5})
        cf.delete(1)
        assert cf.get(1) is None

    def test_delete_shadows_sstable_row(self):
        cf = make_cf()
        cf.insert({"id": 1, "measure": 5})
        cf.flush()
        cf.delete(1)
        assert cf.get(1) is None
        cf.flush()
        assert cf.get(1) is None
        assert len(cf) == 0

    def test_update(self):
        cf = make_cf()
        cf.insert({"id": 1, "measure": 5, "key": "a"})
        cf.update(1, {"measure": 9})
        row = cf.get(1)
        assert row["measure"] == 9
        assert row["key"] == "a"

    def test_update_pk_rejected(self):
        cf = make_cf()
        cf.insert({"id": 1})
        with pytest.raises(InvalidRequest):
            cf.update(1, {"id": 2})


class TestSecondaryIndex:
    def test_lookup(self):
        cf = make_cf()
        cf.create_index("m_idx", "measure")
        for i in range(20):
            cf.insert({"id": i, "measure": i % 4})
        rows = indexed(cf, "measure", 2)
        assert {row["id"] for row in rows} == {2, 6, 10, 14, 18}

    def test_backfill_on_existing_data(self):
        cf = make_cf()
        for i in range(10):
            cf.insert({"id": i, "measure": i % 2})
        cf.create_index("m_idx", "measure")
        assert len(indexed(cf, "measure", 1)) == 5

    def test_overwrite_updates_index(self):
        cf = make_cf()
        cf.create_index("m_idx", "measure")
        cf.insert({"id": 1, "measure": 7})
        cf.insert({"id": 1, "measure": 8})
        assert indexed(cf, "measure", 7) == []
        assert indexed(cf, "measure", 8)[0]["id"] == 1

    def test_delete_updates_index(self):
        cf = make_cf()
        cf.create_index("m_idx", "measure")
        cf.insert({"id": 1, "measure": 7})
        cf.delete(1)
        assert indexed(cf, "measure", 7) == []

    def test_duplicate_index_rejected(self):
        cf = make_cf()
        cf.create_index("m_idx", "measure")
        with pytest.raises(AlreadyExists):
            cf.create_index("m_idx2", "measure")

    def test_index_on_pk_rejected(self):
        with pytest.raises(InvalidRequest):
            make_cf().create_index("x", "id")

    def test_index_on_set_rejected(self):
        with pytest.raises(InvalidRequest):
            make_cf().create_index("x", "children")

    def test_unindexed_lookup_raises(self):
        with pytest.raises(InvalidRequest, match="ALLOW FILTERING"):
            indexed(make_cf(), "measure", 1)

    def test_index_increases_size(self):
        plain = make_cf()
        indexed = make_cf()
        indexed.create_index("m_idx", "measure")
        for i in range(500):
            plain.insert({"id": i, "measure": i % 7})
            indexed.insert({"id": i, "measure": i % 7})
        assert indexed.size_bytes > plain.size_bytes


class TestFlushAndCompaction:
    def test_background_flush_seals_without_building(self):
        cf = make_cf()
        cf.insert({"id": 1})
        cf.seal_memtable()
        assert cf._pending and not cf._sstables
        # reads search sealed memtables in place — no materialisation
        assert cf.get(1) is not None
        assert cf.get(1) == {c.name: (1 if c.name == "id" else None) for c in cf.columns}
        assert scan_rows(cf)
        assert len(cf) == 1
        assert cf._pending and not cf._sstables
        # only an explicit flush builds the SSTable
        cf.flush()
        assert not cf._pending and cf._sstables

    def test_compaction_caps_sstable_count(self):
        cf = make_cf()
        for round_number in range(6):
            cf.insert({"id": round_number, "measure": 1})
            cf.flush()
        assert len(cf._sstables) < 6

    def test_truncate_clears_everything(self):
        cf = make_cf()
        cf.create_index("m_idx", "measure")
        for i in range(10):
            cf.insert({"id": i, "measure": 1})
        cf.flush()
        cf.truncate()
        assert len(cf) == 0
        assert cf.get(1) is None
        assert indexed(cf, "measure", 1) == []

    def test_commit_log_grows(self):
        from repro.nosqldb.commitlog import CommitLog

        log = CommitLog()
        cf = make_cf(commit_log=log)
        cf.insert({"id": 1, "key": "x"})
        assert log.size_bytes > 0
        assert len(log) == 1


class TestRowCodec:
    def test_encode_decode_round_trip(self):
        cf = make_cf()
        row = {"id": 7, "key": "k", "measure": None, "leaf": False, "children": {1}}
        encoded = encode_row(cf, row, timestamp=123)
        decoded = decode_row(cf, encoded)
        assert decoded == {"id": 7, "key": "k", "measure": None, "leaf": False, "children": {1}}

    def test_cassandra2x_format_repeats_column_names(self):
        cf = make_cf()
        encoded = encode_row(cf, {"id": 1, "key": "v"}, timestamp=1)
        assert b"id" in encoded and b"key" in encoded
