"""CQL logged batches: BEGIN BATCH ... APPLY BATCH."""

import pytest

from repro.nosqldb.engine import NoSQLEngine
from repro.nosqldb.errors import CQLSyntaxError
from repro.nosqldb.cql import ast
from repro.nosqldb.cql.parser import parse


@pytest.fixture
def session():
    s = NoSQLEngine().connect()
    s.execute("CREATE KEYSPACE ks")
    s.execute("USE ks")
    s.execute("CREATE TABLE t (id int PRIMARY KEY, v text, m int)")
    return s


class TestParsing:
    def test_batch_of_inserts(self):
        stmt = parse(
            "BEGIN BATCH "
            "INSERT INTO t (id, v) VALUES (1, 'a'); "
            "INSERT INTO t (id, v) VALUES (2, 'b'); "
            "APPLY BATCH"
        )
        assert isinstance(stmt, ast.Batch)
        assert len(stmt.statements) == 2

    def test_mixed_mutations(self):
        stmt = parse(
            "BEGIN BATCH "
            "INSERT INTO t (id, v) VALUES (1, 'a'); "
            "UPDATE t SET v = 'b' WHERE id = 1; "
            "DELETE FROM t WHERE id = 2; "
            "APPLY BATCH"
        )
        assert len(stmt.statements) == 3

    def test_empty_batch_rejected(self):
        with pytest.raises(CQLSyntaxError, match="empty batch"):
            parse("BEGIN BATCH APPLY BATCH")

    def test_select_in_batch_rejected(self):
        with pytest.raises(CQLSyntaxError):
            parse("BEGIN BATCH SELECT * FROM t; APPLY BATCH")

    def test_placeholders_numbered_across_batch(self):
        stmt = parse(
            "BEGIN BATCH "
            "INSERT INTO t (id, v) VALUES (?, ?); "
            "INSERT INTO t (id, v) VALUES (?, ?); "
            "APPLY BATCH"
        )
        indices = [v.index for s in stmt.statements for v in s.rows[0]]
        assert indices == [0, 1, 2, 3]


class TestExecution:
    def test_batch_applies_in_order(self, session):
        session.execute(
            "BEGIN BATCH "
            "INSERT INTO t (id, v, m) VALUES (1, 'first', 1); "
            "UPDATE t SET v = 'second' WHERE id = 1; "
            "INSERT INTO t (id, v, m) VALUES (2, 'x', 2); "
            "APPLY BATCH"
        )
        assert session.execute("SELECT v FROM t WHERE id = 1").one()["v"] == "second"
        assert session.execute("SELECT COUNT(*) FROM t").one()["count"] == 2

    def test_batch_with_params(self, session):
        session.execute(
            "BEGIN BATCH "
            "INSERT INTO t (id, v) VALUES (?, ?); "
            "INSERT INTO t (id, v) VALUES (?, ?); "
            "APPLY BATCH",
            (1, "a", 2, "b"),
        )
        assert session.execute("SELECT v FROM t WHERE id = 2").one()["v"] == "b"

    def test_batch_with_delete(self, session):
        session.execute("INSERT INTO t (id, v) VALUES (9, 'gone')")
        session.execute(
            "BEGIN BATCH DELETE FROM t WHERE id = 9; "
            "INSERT INTO t (id, v) VALUES (10, 'kept'); APPLY BATCH"
        )
        assert session.execute("SELECT * FROM t WHERE id = 9").one() is None
        assert session.execute("SELECT * FROM t WHERE id = 10").one() is not None

    def test_prepared_batch_reusable(self, session):
        prepared = session.prepare(
            "BEGIN BATCH INSERT INTO t (id, m) VALUES (?, ?); "
            "INSERT INTO t (id, m) VALUES (?, ?); APPLY BATCH"
        )
        session.execute_prepared(prepared, (1, 10, 2, 20))
        session.execute_prepared(prepared, (3, 30, 4, 40))
        assert session.execute("SELECT COUNT(*) FROM t").one()["count"] == 4
