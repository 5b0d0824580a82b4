"""Query history: fingerprints, the bounded ring, profiles, gating."""

import pytest

from repro.telemetry import get_query_log
from repro.telemetry.querylog import QueryLog, fingerprint, latency_bucket


class TestFingerprint:
    def test_literals_masked(self):
        assert (
            fingerprint("SELECT * FROM t WHERE id = 3 AND name = 'dublin'")
            == "SELECT * FROM T WHERE ID = ? AND NAME = ?"
        )

    def test_prepared_and_inline_share_a_fingerprint(self):
        prepared = fingerprint("select * from t where id = ?")
        inline = fingerprint("SELECT  *  FROM t\n WHERE id = 42")
        assert prepared == inline

    def test_identifiers_with_digits_survive(self):
        assert fingerprint("SELECT a1 FROM t1") == "SELECT A1 FROM T1"

    def test_digits_inside_strings_vanish_with_the_string(self):
        assert fingerprint("WHERE k = '123abc'") == "WHERE K = ?"

    def test_whitespace_collapsed_and_case_folded(self):
        assert fingerprint("  select\t1 ,\n 2  ") == "SELECT ? , ?"

    def test_floats_masked(self):
        assert fingerprint("WHERE x > 1.5") == "WHERE X > ?"


class TestLatencyBucket:
    def test_maps_to_bucket_upper_bound(self):
        assert latency_bucket(0.0005) == 0.0005
        assert latency_bucket(0.0006) == 0.001

    def test_clamps_past_last_finite_bound(self):
        assert latency_bucket(1e9) == latency_bucket(10.0)


class TestRing:
    def test_bounded_with_drop_count(self):
        log = QueryLog(enabled=True, max_records=3)
        for i in range(5):
            log.record(f"SELECT {i}", "sql", 0.001)
        assert len(log) == 3
        assert log.dropped == 2
        # the ring keeps the newest records
        assert all(r.fingerprint == "SELECT ?" for r in log.records())

    def test_reset_clears_records_and_drops(self):
        log = QueryLog(enabled=True, max_records=2)
        for _ in range(4):
            log.record("SELECT 1", "sql", 0.001)
        log.reset()
        assert len(log) == 0
        assert log.dropped == 0


class TestProfiles:
    def test_quantiles_and_aggregates(self):
        log = QueryLog(enabled=True, max_records=256)
        for _ in range(90):
            log.record("SELECT * FROM t WHERE id = 1", "sql", 0.001, rows=1)
        for _ in range(10):
            log.record("SELECT * FROM t WHERE id = 2", "sql", 1.0, rows=1)
        profiles = log.profiles()
        assert len(profiles) == 1  # same fingerprint
        profile = profiles[0]
        assert profile["count"] == 100
        assert profile["rows"] == 100
        assert profile["p50_s"] == 0.001  # exact at the bucket bound
        assert profile["p99_s"] == 1.0
        assert profile["total_s"] == pytest.approx(90 * 0.001 + 10 * 1.0)

    def test_sorted_by_total_time(self):
        log = QueryLog(enabled=True)
        log.record("SELECT a FROM t", "sql", 0.001)
        log.record("SELECT b FROM t", "sql", 0.5)
        fingerprints = [p["fingerprint"] for p in log.profiles()]
        assert fingerprints == ["SELECT B FROM T", "SELECT A FROM T"]


class TestGating:
    def test_disabled_path_never_touches_the_log(self, monkeypatch):
        """With REPRO_QUERY_LOG off the hot path must not compute a
        fingerprint, allocate a record, or call the log at all."""
        import repro.telemetry.querylog as querylog

        log = get_query_log()
        log.reset()  # the precondition: whatever ran before left no records
        monkeypatch.setattr(log, "enabled", False)

        def boom(*args, **kwargs):
            raise AssertionError("disabled path touched the query log")

        monkeypatch.setattr(QueryLog, "record", boom)
        monkeypatch.setattr(querylog, "fingerprint", boom)

        from repro.nosqldb.engine import NoSQLEngine
        from repro.sqldb.engine import SQLEngine

        sql = SQLEngine().connect()
        sql.execute("CREATE DATABASE d")
        sql.execute("USE d")
        sql.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        sql.execute("INSERT INTO t (id, v) VALUES (1, 10)")
        assert sql.execute("SELECT * FROM t WHERE id = 1").rows

        cql = NoSQLEngine().connect()
        cql.execute("CREATE KEYSPACE k")
        cql.execute("USE k")
        cql.execute("CREATE TABLE t (id int PRIMARY KEY, v int)")
        cql.execute("INSERT INTO t (id, v) VALUES (1, 10)")
        assert cql.execute("SELECT * FROM t WHERE id = 1").rows
        assert len(log) == 0

    def test_enabled_records_both_dialects(self, monkeypatch):
        log = get_query_log()
        monkeypatch.setattr(log, "enabled", True)
        log.reset()
        try:
            from repro.nosqldb.engine import NoSQLEngine
            from repro.sqldb.engine import SQLEngine

            sql = SQLEngine().connect()
            sql.execute("CREATE DATABASE d")
            sql.execute("USE d")
            sql.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            sql.execute("INSERT INTO t (id, v) VALUES (1, 10)")
            sql.execute("SELECT * FROM t WHERE id = 1")
            cql = NoSQLEngine().connect()
            cql.execute("CREATE KEYSPACE k")
            cql.execute("USE k")
            cql.execute("CREATE TABLE t (id int PRIMARY KEY, v int)")
            cql.execute("INSERT INTO t (id, v) VALUES (1, 10)")
            cql.execute("SELECT * FROM t WHERE id = 1")
            dialects = {r.dialect for r in log.records()}
            assert {"sql", "cql"} <= dialects
            select = next(
                r for r in log.records()
                if r.fingerprint == "SELECT * FROM T WHERE ID = ?"
            )
            assert select.rows == 1
        finally:
            log.reset()
