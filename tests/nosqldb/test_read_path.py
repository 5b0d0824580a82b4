"""Read-path caches: multi-get equivalence, strict invalidation, stats.

The row/block caches (docs/read_path.md) must be invisible to callers:
the rows of a batched ``get_batches`` agree with per-key ``get`` under
any mutation history, and
every mutation path — update, delete, flush, compaction, truncate, crash
recovery — leaves the caches agreeing with storage.  The invalidation
tests run with the invariant checkers armed (REPRO_CHECK=1) so the
``row-cache-stale`` and ``live-count`` rules fire inside the mutation
hooks, and additionally assert via ``columnfamily_check`` directly.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.sstable_check import columnfamily_check, encode_row
from repro.nosqldb.columnfamily import Column, ColumnFamily
from repro.nosqldb.engine import NoSQLEngine
from repro.nosqldb.keyspace import Keyspace
from repro.nosqldb.types import parse_type


def make_cf(**kwargs) -> ColumnFamily:
    return ColumnFamily(
        "t",
        [Column("id", parse_type("int")), Column("m", parse_type("int"))],
        "id",
        **kwargs,
    )


def fetched(cf: ColumnFamily, keys) -> list:
    """The rows :meth:`ColumnFamily.get_batches` fetches for ``keys``."""
    return [row for batch in cf.get_batches(keys) for row in batch.rows()]


def assert_clean(cf: ColumnFamily) -> None:
    report = columnfamily_check(cf)
    assert report.ok, report.format_lines()


# ----------------------------------------------------------------------
# property: batched rows == per-key get, whatever the history
# ----------------------------------------------------------------------
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "flush", "seal", "read", "read_many"]),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=-1000, max_value=1000),
    ),
    max_size=120,
)

read_keys_strategy = st.lists(
    st.integers(min_value=-2, max_value=32), max_size=40
)


@given(ops=ops_strategy, keys=read_keys_strategy)
@settings(max_examples=80, deadline=None)
def test_get_batches_rows_match_pointwise_get(ops, keys):
    """Duplicates, misses and cache state never change the answers: a
    key's row is its ``get``, a repeated key repeats it, a miss is
    skipped."""
    cf = make_cf()
    reference = {}
    for op, key, value in ops:
        if op == "insert":
            cf.insert({"id": key, "m": value})
            reference[key] = value
        elif op == "delete":
            cf.delete(key)
            reference.pop(key, None)
        elif op == "flush":
            cf.flush()
        elif op == "seal":
            cf.seal_memtable()
        elif op == "read":  # interleaved reads populate the caches
            cf.get(key)
        else:
            fetched(cf, [key, key + 1])
    batched = fetched(cf, keys)
    assert batched == [row for row in map(cf.get, keys) if row is not None]
    assert batched == [{"id": key, "m": reference[key]} for key in keys if key in reference]
    assert_clean(cf)


def test_get_batches_preserves_order_and_duplicates():
    cf = make_cf()
    for i in range(6):
        cf.insert({"id": i, "m": i * 10})
    cf.flush()
    rows = fetched(cf, [5, 0, 5, 99, 2])
    assert [r["m"] for r in rows] == [50, 0, 50, 20]


def test_get_batches_spans_memtable_pending_and_sstables():
    cf = make_cf()
    cf.insert({"id": 1, "m": 1})
    cf.flush()
    cf.insert({"id": 2, "m": 2})
    cf.seal_memtable()
    cf.insert({"id": 3, "m": 3})
    cf.insert({"id": 1, "m": 100})  # shadows the SSTable version
    rows = fetched(cf, [1, 2, 3])
    assert [r["m"] for r in rows] == [100, 2, 3]
    assert cf._pending, "multi-get must not force materialisation"


# ----------------------------------------------------------------------
# strict invalidation under every mutation path (checkers armed)
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _armed(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")


class TestInvalidation:
    def test_update_invalidates_cached_row(self):
        cf = make_cf()
        cf.insert({"id": 1, "m": 1})
        cf.flush()
        assert cf.get(1)["m"] == 1  # row now cached
        cf.update(1, {"m": 2})
        assert cf.get(1)["m"] == 2
        assert_clean(cf)

    def test_delete_invalidates_cached_row(self):
        cf = make_cf()
        cf.insert({"id": 1, "m": 1})
        assert cf.get(1) is not None
        cf.delete(1)
        assert cf.get(1) is None
        assert_clean(cf)

    def test_insert_invalidates_cached_negative(self):
        cf = make_cf()
        assert cf.get(7) is None  # negative result now cached
        cf.insert({"id": 7, "m": 7})
        assert cf.get(7)["m"] == 7
        assert_clean(cf)

    def test_flush_keeps_cache_agreeing(self):
        cf = make_cf()
        for i in range(10):
            cf.insert({"id": i, "m": i})
        assert len(fetched(cf, list(range(10)))) == 10
        cf.flush()
        assert [r["m"] for r in fetched(cf, list(range(10)))] == list(range(10))
        assert_clean(cf)

    def test_compaction_keeps_cache_agreeing(self):
        cf = make_cf()
        for round_number in range(6):  # several flushes force a compaction
            cf.insert({"id": round_number, "m": round_number})
            fetched(cf, list(range(round_number + 1)))
            cf.flush()
        assert [r["m"] for r in fetched(cf, list(range(6)))] == list(range(6))
        assert_clean(cf)

    @pytest.mark.parametrize("write", [
        lambda cf: cf.insert({"id": 1, "m": 1}),
        lambda cf: cf.insert_columns(cf.columns, [(1,), (1,)]),
        lambda cf: cf.update(1, {"m": 1}),
        lambda cf: cf.apply_replayed(1, encode_row(cf, {"id": 1, "m": 1})),
        lambda cf: cf.delete_keys((1,)),
    ], ids=["insert", "insert_columns", "update", "apply_replayed", "delete_keys"])
    @pytest.mark.parametrize("flushed", [False, True], ids=["memtable", "sstable"])
    def test_identical_rewrite_drops_the_cached_row(self, write, flushed):
        # A cached row carries no timestamps, so the checker cannot tell
        # a skipped invalidation from a rewrite of the same values: each
        # write path must drop the written key's entry, and only that.
        cf = make_cf()
        cf.insert_columns(cf.columns, [(1, 2), (1, 2)])
        if flushed:
            cf.flush()
        assert len(fetched(cf, [1, 2])) == 2
        assert {key for key, _ in cf._row_cache.items()} == {1, 2}
        write(cf)
        assert {key for key, _ in cf._row_cache.items()} == {2}
        assert_clean(cf)

    def test_truncate_clears_caches(self):
        cf = make_cf()
        for i in range(5):
            cf.insert({"id": i, "m": i})
        cf.flush()
        fetched(cf, list(range(5)))
        cf.truncate()
        assert fetched(cf, list(range(5))) == []
        assert len(cf) == 0
        assert_clean(cf)

    def test_crash_recovery_drops_and_repopulates(self):
        keyspace = Keyspace("ks", durable_writes=True)
        table = keyspace.create_table(
            "t",
            [Column("id", parse_type("int")), Column("m", parse_type("int"))],
            "id",
        )
        for i in range(8):
            table.insert({"id": i, "m": i})
        fetched(table, list(range(8)))  # warm the row cache
        table.delete(3)
        keyspace.simulate_crash()
        assert table._row_cache.stats().entries == 0
        keyspace.replay_commit_log()
        rows = fetched(table, list(range(8)))
        assert [r["m"] for r in rows] == [0, 1, 2, 4, 5, 6, 7]
        assert len(table) == 7  # recounted lazily after recovery
        assert_clean(table)


# ----------------------------------------------------------------------
# live-row counter
# ----------------------------------------------------------------------
class TestLiveCount:
    def test_len_without_scans(self):
        cf = make_cf()
        for i in range(10):
            cf.insert({"id": i, "m": i})
        cf.insert({"id": 3, "m": 33})  # overwrite: no count change
        cf.delete(4)
        cf.delete(4)  # double delete: single decrement
        cf.flush()
        cf.delete(99)  # deleting a miss: no change
        assert len(cf) == 9
        assert_clean(cf)

    def test_len_with_indexes(self):
        cf = make_cf()
        cf.create_index("m_idx", "m")
        for i in range(6):
            cf.insert({"id": i % 3, "m": i})
        cf.delete(0)
        assert len(cf) == 2
        assert_clean(cf)


# ----------------------------------------------------------------------
# cache stats
# ----------------------------------------------------------------------
class TestCacheStats:
    def test_row_cache_counts_hits(self):
        cf = make_cf()
        cf.insert({"id": 1, "m": 1})
        cf.flush()
        cf.get(1)
        before = cf.stats().row_cache.hits
        cf.get(1)
        cf.get(1)
        assert cf.stats().row_cache.hits == before + 2

    def test_block_cache_hit_on_repeated_disk_read(self):
        cf = make_cf(row_cache_bytes=0)  # isolate the block cache
        for i in range(50):
            cf.insert({"id": i, "m": i})
        cf.flush()
        cf.get(7)
        before = cf.stats().block_cache
        cf.get(7)
        after = cf.stats().block_cache
        assert after.hits == before.hits + 1
        assert after.entries >= 1

    def test_zero_budgets_disable_without_changing_answers(self):
        cf = make_cf(block_cache_bytes=0, row_cache_bytes=0)
        for i in range(20):
            cf.insert({"id": i, "m": i})
        cf.flush()
        assert [r["m"] for r in fetched(cf, list(range(20)))] == list(range(20))
        stats = cf.stats()
        assert stats.row_cache.capacity_bytes == 0
        assert stats.block_cache.capacity_bytes == 0
        assert stats.row_cache.entries == 0
        assert stats.block_cache.entries == 0
        assert_clean(cf)

    def test_row_cache_eviction_under_tiny_budget(self):
        cf = make_cf(row_cache_bytes=256)
        for i in range(50):
            cf.insert({"id": i, "m": i})
        cf.flush()
        assert [r["m"] for r in fetched(cf, list(range(50)))] == list(range(50))
        stats = cf.stats().row_cache
        assert stats.evictions > 0
        assert stats.used_bytes <= 256
        assert_clean(cf)


# ----------------------------------------------------------------------
# session-level batched point reads: WHERE pk IN (...) plans to MultiGet
# ----------------------------------------------------------------------
def _keys_batched(session, namespace, text):
    """The MultiGet counter of the cached plan for ``text``."""
    plan = session.plan_cache.peek((namespace, text))
    return sum(getattr(node, "keys_batched", 0) for node in plan.root._postorder())


class TestBatchedPointReadsCQL:
    @pytest.fixture
    def session(self):
        s = NoSQLEngine().connect()
        s.execute("CREATE KEYSPACE ks")
        s.execute("USE ks")
        s.execute("CREATE TABLE cells (id int PRIMARY KEY, k text, m int)")
        insert = s.prepare("INSERT INTO cells (id, k, m) VALUES (?, ?, ?)")
        s.execute_many(insert, ((i, f"k{i}", i * 2) for i in range(30)))
        return s

    def test_in_list_matches_per_row_execution(self, session):
        point = session.prepare("SELECT k, m FROM cells WHERE id = ?")
        text = "SELECT k, m FROM cells WHERE id IN (?, ?, ?, ?, ?)"
        keys = (5, 1, 5, 99, 28)
        batched = session.execute(text, keys).rows
        pointwise = [
            row for key in keys for row in session.execute_prepared(point, (key,)).rows
        ]
        assert batched == pointwise
        assert _keys_batched(session, "ks", text) == len(keys)

    def test_in_list_with_literals(self, session):
        text = "SELECT id, m FROM cells WHERE id IN (3, 1, 7)"
        rows = session.execute(text).rows
        assert sorted(r["id"] for r in rows) == [1, 3, 7]
        assert [r["m"] for r in rows] == [6, 2, 14]
        assert _keys_batched(session, "ks", text) == 3

    def test_count_shape_is_not_batched(self, session):
        text = "SELECT count(*) FROM cells"
        assert session.execute(text).one()["count"] == 30
        assert _keys_batched(session, "ks", text) == 0


class TestBatchedPointReadsSQL:
    @pytest.fixture
    def session(self):
        from repro.sqldb.engine import SQLEngine

        s = SQLEngine().connect()
        s.execute("CREATE DATABASE db")
        s.execute("USE db")
        s.execute("CREATE TABLE cells (id INT PRIMARY KEY, m INT)")
        insert = s.prepare("INSERT INTO cells (id, m) VALUES (?, ?)")
        s.execute_many(insert, [(i, i * 3) for i in range(20)])
        return s

    def test_in_list_matches_per_row_execution(self, session):
        point = session.prepare("SELECT m FROM cells WHERE id = ?")
        text = "SELECT m FROM cells WHERE id IN (?, ?, ?, ?)"
        keys = (4, 0, 4, 77)
        batched = session.execute(text, keys).rows
        pointwise = [
            row for key in keys for row in session.execute_prepared(point, (key,)).rows
        ]
        assert batched == pointwise
        assert _keys_batched(session, "db", text) == len(keys)
