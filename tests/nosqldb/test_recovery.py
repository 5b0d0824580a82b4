"""Failure injection: crash and commit-log replay."""

import pytest

from repro.nosqldb.columnfamily import Column
from repro.nosqldb.commitlog import CommitLog
from repro.nosqldb.engine import NoSQLEngine
from repro.nosqldb.errors import InvalidRequest
from repro.nosqldb.types import parse_type


@pytest.fixture
def keyspace():
    engine = NoSQLEngine()
    ks = engine.create_keyspace("ks")
    ks.create_table(
        "t",
        [Column("id", parse_type("int")), Column("v", parse_type("text")),
         Column("m", parse_type("int"))],
        "id",
    )
    return ks


class TestCommitLog:
    def test_records_round_trip(self):
        log = CommitLog()
        log.append("t", 1, b"row-one")
        log.append("t", "str-key", b"row-two")
        log.append("t", 3, b"")  # tombstone
        assert list(log.records()) == [
            ("t", 1, b"row-one"), ("t", "str-key", b"row-two"), ("t", 3, b""),
        ]

    def test_checkpoint_clears(self):
        log = CommitLog()
        log.append("t", 1, b"x")
        log.checkpoint()
        assert len(log) == 0
        assert list(log.records()) == []


class TestCrashRecovery:
    def test_memtable_rows_recovered(self, keyspace):
        table = keyspace.table("t")
        for i in range(50):
            table.insert({"id": i, "v": f"row{i}", "m": i})
        keyspace.simulate_crash()
        assert table.get(10) is None  # really lost
        replayed = keyspace.replay_commit_log()
        assert replayed == 50
        assert table.get(10)["v"] == "row10"
        assert len(table) == 50

    def test_flushed_rows_survive_without_replay(self, keyspace):
        table = keyspace.table("t")
        table.insert({"id": 1, "v": "durable"})
        table.flush()
        keyspace.clear_commit_log()   # checkpoint after flush
        table.insert({"id": 2, "v": "volatile"})
        keyspace.simulate_crash()
        assert table.get(1)["v"] == "durable"   # from the SSTable
        assert table.get(2) is None
        keyspace.replay_commit_log()
        assert table.get(2)["v"] == "volatile"

    def test_replay_preserves_overwrite_order(self, keyspace):
        table = keyspace.table("t")
        table.insert({"id": 1, "m": 1})
        table.insert({"id": 1, "m": 2})
        keyspace.simulate_crash()
        keyspace.replay_commit_log()
        assert table.get(1)["m"] == 2

    def test_replay_applies_tombstones(self, keyspace):
        table = keyspace.table("t")
        table.insert({"id": 1, "v": "x"})
        table.delete(1)
        keyspace.simulate_crash()
        keyspace.replay_commit_log()
        assert table.get(1) is None

    def test_replay_rebuilds_secondary_indexes(self, keyspace):
        table = keyspace.table("t")
        table.create_index("m_idx", "m")
        for i in range(20):
            table.insert({"id": i, "m": i % 4})
        keyspace.simulate_crash()
        keyspace.replay_commit_log()
        rows = [row for batch in table.get_batches((1,), index="m") for row in batch.rows()]
        assert {row["id"] for row in rows} == {1, 5, 9, 13, 17}

    def test_replay_skips_dropped_tables(self, keyspace):
        table = keyspace.table("t")
        table.insert({"id": 1})
        keyspace.drop_table("t")
        assert keyspace.replay_commit_log() == 0

    def test_replay_requires_durable_writes(self):
        ks = NoSQLEngine().create_keyspace("nd", durable_writes=False)
        with pytest.raises(InvalidRequest):
            ks.replay_commit_log()

    def test_replay_is_idempotent(self, keyspace):
        table = keyspace.table("t")
        for i in range(5):
            table.insert({"id": i, "m": i})
        keyspace.replay_commit_log()   # no crash: same end state
        keyspace.replay_commit_log()
        assert len(table) == 5
        assert table.get(3)["m"] == 3

    def test_stored_cube_survives_crash(self):
        """End-to-end: a stored DWARF survives losing all memtables."""
        from repro.dwarf.builder import build_cube
        from repro.core.schema import CubeSchema
        from repro.mapping.nosql_dwarf import NoSQLDwarfMapper

        schema = CubeSchema("c", ["a", "b"])
        cube = build_cube([("x", "y", 1), ("x", "z", 2)], schema)
        mapper = NoSQLDwarfMapper()
        mapper.install()
        schema_id = mapper.store(cube)
        keyspace = mapper.engine.keyspace(mapper.keyspace_name)
        keyspace.simulate_crash()
        keyspace.replay_commit_log()
        assert mapper.load(schema_id).total() == 3


@pytest.mark.parametrize("indexed", [False, True], ids=["plain", "indexed"])
class TestBulkDelete:
    """``delete_keys`` on a plain table and on one with a secondary
    index (NoSQL-Min's shape): the log records one ``append`` per key
    writes, and replaying them rebuilds the state no crash lost."""

    KEYS = [3, 45, 3, 99, 12, 58, 45]  # SSTable and memtable rows, repeats, a miss

    def loaded(self, indexed):
        keyspace = NoSQLEngine().create_keyspace("ks")
        table = keyspace.create_table(
            "t", [Column("id", parse_type("int")), Column("m", parse_type("int"))], "id"
        )
        if indexed:
            table.create_index("t_m_idx", "m")
        for i in range(40):
            table.insert({"id": i, "m": i % 5})
        table.flush()
        keyspace.clear_commit_log()  # rows 0-39 live in an SSTable
        for i in range(40, 60):
            table.insert({"id": i, "m": i % 5})
        return keyspace, table

    @staticmethod
    def state(table):
        memtable = table._memtable
        indexes = {index.column: list(index._tree.items()) for index in table.indexes}
        return dict(memtable), memtable.tombstones, indexes, len(table)

    def test_log_bytes_equal_one_append_per_key(self, indexed):
        keyspace, table = self.loaded(indexed)
        start = keyspace.commit_log_bytes
        assert table.delete_keys(self.KEYS) == 4
        one_by_one = CommitLog()
        for key in self.KEYS:
            one_by_one.append("t", key, b"")
        assert bytes(keyspace._commit_log._buffer[start:]) == bytes(one_by_one._buffer)

    def test_replay_restores_the_no_crash_state(self, indexed):
        keyspace, table = self.loaded(indexed)
        table.delete_keys(self.KEYS)
        before = self.state(table)
        assert before[3] == 56
        keyspace.simulate_crash()
        keyspace.replay_commit_log()
        assert self.state(table) == before
