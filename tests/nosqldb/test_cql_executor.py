"""CQL execution against the engine through sessions."""

import pytest

from repro.nosqldb.engine import NoSQLEngine
from repro.nosqldb.errors import AlreadyExists, InvalidRequest
from tests.conftest import scan_rows


@pytest.fixture
def session():
    engine = NoSQLEngine()
    s = engine.connect()
    s.execute("CREATE KEYSPACE ks")
    s.execute("USE ks")
    s.execute(
        "CREATE TABLE cells (id int PRIMARY KEY, key text, measure int, "
        "parent int, leaf boolean, children set<int>)"
    )
    return s


def fill(session, n=10):
    p = session.prepare(
        "INSERT INTO cells (id, key, measure, parent, leaf) VALUES (?, ?, ?, ?, ?)"
    )
    session.execute_many(
        p, ((i, f"k{i}", i % 3, i // 2, i % 2 == 0) for i in range(n))
    )


class TestDDL:
    def test_duplicate_keyspace_rejected(self, session):
        with pytest.raises(AlreadyExists):
            session.execute("CREATE KEYSPACE ks")

    def test_if_not_exists_swallows(self, session):
        session.execute("CREATE KEYSPACE IF NOT EXISTS ks")
        session.execute(
            "CREATE TABLE IF NOT EXISTS cells (id int PRIMARY KEY)"
        )

    def test_use_unknown_keyspace(self, session):
        with pytest.raises(InvalidRequest):
            session.execute("USE nope")

    def test_drop_table(self, session):
        session.execute("DROP TABLE cells")
        with pytest.raises(InvalidRequest):
            session.execute("SELECT * FROM cells")

    def test_no_keyspace_selected(self):
        s = NoSQLEngine().connect()
        with pytest.raises(InvalidRequest, match="keyspace"):
            s.execute("SELECT * FROM t")


class TestInsertSelect:
    def test_pk_point_read(self, session):
        fill(session)
        row = session.execute("SELECT * FROM cells WHERE id = 3").one()
        assert row["key"] == "k3"

    def test_pk_in_read(self, session):
        fill(session)
        rows = session.execute("SELECT * FROM cells WHERE id IN (1, 2, 99)")
        assert {r["id"] for r in rows} == {1, 2}

    def test_projection(self, session):
        fill(session)
        row = session.execute("SELECT key FROM cells WHERE id = 1").one()
        assert row == {"key": "k1"}

    def test_projection_unknown_column(self, session):
        fill(session)
        with pytest.raises(InvalidRequest):
            session.execute("SELECT nope FROM cells WHERE id = 1")

    def test_count(self, session):
        fill(session, 7)
        assert session.execute("SELECT COUNT(*) FROM cells").one()["count"] == 7

    def test_limit(self, session):
        fill(session)
        assert len(session.execute("SELECT * FROM cells LIMIT 3")) == 3

    def test_filtering_requires_allow(self, session):
        fill(session)
        with pytest.raises(InvalidRequest, match="ALLOW FILTERING"):
            session.execute("SELECT * FROM cells WHERE measure = 1")

    def test_allow_filtering_scan(self, session):
        fill(session, 9)
        rows = session.execute("SELECT * FROM cells WHERE measure = 1 ALLOW FILTERING")
        assert {r["id"] for r in rows} == {1, 4, 7}

    def test_range_filter(self, session):
        fill(session, 10)
        rows = session.execute("SELECT * FROM cells WHERE id >= 8 ALLOW FILTERING")
        assert {r["id"] for r in rows} == {8, 9}

    def test_null_not_inserted(self, session):
        session.execute("INSERT INTO cells (id, key) VALUES (100, null)")
        assert session.execute("SELECT * FROM cells WHERE id = 100").one()["key"] is None

    def test_set_round_trip_through_cql(self, session):
        session.execute("INSERT INTO cells (id, children) VALUES (1, {7, 8})")
        assert session.execute("SELECT * FROM cells WHERE id = 1").one()["children"] == {7, 8}


class TestIndexQueries:
    def test_index_equality(self, session):
        session.execute("CREATE INDEX ON cells (parent)")
        fill(session, 10)
        rows = session.execute("SELECT * FROM cells WHERE parent = 2")
        assert {r["id"] for r in rows} == {4, 5}

    def test_index_plus_residual_filter(self, session):
        session.execute("CREATE INDEX ON cells (parent)")
        fill(session, 10)
        rows = session.execute("SELECT * FROM cells WHERE parent = 2 AND leaf = true")
        assert {r["id"] for r in rows} == {4}


class TestUpdateDelete:
    def test_update(self, session):
        fill(session, 3)
        session.execute("UPDATE cells SET measure = 42 WHERE id = 1")
        assert session.execute("SELECT measure FROM cells WHERE id = 1").one()["measure"] == 42

    def test_update_with_params(self, session):
        fill(session, 3)
        session.execute("UPDATE cells SET measure = ? WHERE id = ?", (9, 2))
        assert session.execute("SELECT measure FROM cells WHERE id = 2").one()["measure"] == 9

    def test_update_requires_pk_where(self, session):
        fill(session, 3)
        with pytest.raises(InvalidRequest):
            session.execute("UPDATE cells SET measure = 1 WHERE key = 'k1'")

    def test_delete(self, session):
        fill(session, 3)
        session.execute("DELETE FROM cells WHERE id = 1")
        assert session.execute("SELECT * FROM cells WHERE id = 1").one() is None

    def test_delete_with_a_mistyped_key_is_refused(self, session):
        fill(session, 3)
        keyspace = session.engine.keyspace("ks")
        table = keyspace.table("cells")
        logged = list(keyspace._commit_log.records())
        with pytest.raises(InvalidRequest, match="expected int, got 'x'"):
            session.execute("DELETE FROM cells WHERE id = 'x'")
        with pytest.raises(InvalidRequest, match="expected int, got 'x'"):
            session.execute("INSERT INTO cells (id, key) VALUES ('x', 'k')")
        assert list(keyspace._commit_log.records()) == logged
        assert not table._memtable.tombstones
        table.flush()  # a str tombstone among int keys wedged this
        assert [row["id"] for row in session.execute("SELECT * FROM cells")] == [0, 1, 2]
        keyspace.simulate_crash()
        keyspace.replay_commit_log()  # nothing in the log re-poisons it
        table.flush()
        assert session.execute("SELECT COUNT(*) FROM cells").one()["count"] == 3

    def test_truncate(self, session):
        fill(session, 5)
        session.execute("TRUNCATE cells")
        assert session.execute("SELECT COUNT(*) FROM cells").one()["count"] == 0


class TestPreparedStatements:
    def test_too_few_params(self, session):
        p = session.prepare("INSERT INTO cells (id, key) VALUES (?, ?)")
        with pytest.raises(InvalidRequest, match="bind marker"):
            session.execute_prepared(p, (1,))

    def test_batch_returns_count(self, session):
        p = session.prepare("INSERT INTO cells (id) VALUES (?)")
        assert session.execute_many(p, ((i,) for i in range(5))) == 5

    def test_plan_fast_path_matches_generic(self, session):
        p = session.prepare("INSERT INTO cells (id, key, measure) VALUES (?, ?, ?)")
        session.execute_many(p, [(1, "a", 5)])              # template path
        session.execute_prepared(p, (2, "b", 6))            # generic path
        a = session.execute("SELECT * FROM cells WHERE id = 1").one()
        b = session.execute("SELECT * FROM cells WHERE id = 2").one()
        assert a["key"] == "a" and b["key"] == "b"
        assert a["measure"] == 5 and b["measure"] == 6

    def test_plan_skips_none_params(self, session):
        p = session.prepare("INSERT INTO cells (id, key) VALUES (?, ?)")
        session.execute_many(p, [(1, None)])
        assert session.execute("SELECT * FROM cells WHERE id = 1").one()["key"] is None

    def test_plan_missing_pk_raises(self, session):
        p = session.prepare("INSERT INTO cells (id, key) VALUES (?, ?)")
        with pytest.raises(InvalidRequest):
            session.execute_many(p, [(None, "x")])


class TestRepeatedInsertColumn:
    """A bound row with two cells for one column used to flush into a
    columnar block no read could decode; the statement is now refused
    where it is resolved, on every path."""

    def test_prepared_bulk_insert_rejected(self, session):
        p = session.prepare(
            "INSERT INTO cells (id, measure, measure) VALUES (?, ?, ?)"
        )
        with pytest.raises(InvalidRequest, match="'measure' more than once"):
            session.execute_many(p, [(2, 5, 6)])
        table = session.engine.keyspace("ks").table("cells")
        table.flush()
        assert scan_rows(table) == []

    def test_generic_insert_rejected(self, session):
        with pytest.raises(InvalidRequest, match="more than once"):
            session.execute("INSERT INTO cells (id, key, key) VALUES (1, 'a', 'b')")
        p = session.prepare("INSERT INTO cells (id, key, key) VALUES (?, ?, ?)")
        with pytest.raises(InvalidRequest, match="more than once"):
            session.execute_prepared(p, (1, "a", "b"))


class TestKeyspaceAccounting:
    def test_size_bytes_grows(self, session):
        before = session.engine.keyspace("ks").size_bytes
        fill(session, 200)
        assert session.engine.keyspace("ks").size_bytes > before

    def test_commit_log_and_clear(self, session):
        fill(session, 10)
        ks = session.engine.keyspace("ks")
        assert ks.commit_log_bytes > 0
        ks.clear_commit_log()
        assert ks.commit_log_bytes == 0
