"""The client-session contract, run against both dialects.

``SQLSession`` and the CQL ``Session`` are one :class:`repro.query.Session`
parameterized by a :class:`~repro.query.Dialect`, so the same verb
sequence — DDL, ``prepare``, ``execute_prepared``, ``execute_many``,
``EXPLAIN ANALYZE``, plan-cache reuse and DDL invalidation — must behave
the same on both.  The write-path tests pin the one-write-path claim:
``execute_many(prepared, rows)`` leaves storage byte-identical to the
same rows sent through single-row ``execute`` calls.
"""

import pytest

from repro.nosqldb.engine import NoSQLEngine
from repro.nosqldb.errors import InvalidRequest
from repro.query import Dialect, Session, WriteTemplate
from repro.sqldb.engine import SQLEngine
from repro.sqldb.errors import IntegrityError, ProgrammingError
from repro.telemetry import get_query_log

_INSERT = "INSERT INTO readings (id, station, level) VALUES (?, ?, ?)"
_ROWS = [
    (1, "north", 10),
    (2, "south", -3),
    (3, "north", 7),
    (4, None, 0),  # a None value is skipped, not stored
    (5, "east", 99),
]


class _SQL:
    label = "sql"
    namespace = "db"
    create_namespace = "CREATE DATABASE IF NOT EXISTS db"
    create_table = (
        "CREATE TABLE IF NOT EXISTS readings "
        "(id INT PRIMARY KEY, station VARCHAR(32), level INT)"
    )
    create_index = "CREATE INDEX idx_station ON readings (station)"

    @staticmethod
    def engine(tmp_path):
        return SQLEngine()

    @staticmethod
    def table(engine):
        return engine.database("db").table("readings")

    @staticmethod
    def stored_bytes(engine, tmp_path):
        """Heap pages, redo log, binlog and index entries."""
        database = engine.database("db")
        table = database.table("readings")
        return {
            "redo": bytes(database._redo_log),
            "binlog": bytes(database._binlog),
            "heap": list(table._clustered.items()),
            "secondary": {
                name: list(tree.items()) for name, tree in table._secondary.items()
            },
            "size": table.size_bytes,
        }


class _CQL:
    label = "cql"
    namespace = "db"
    create_namespace = "CREATE KEYSPACE IF NOT EXISTS db"
    create_table = (
        "CREATE TABLE IF NOT EXISTS readings "
        "(id int PRIMARY KEY, station text, level int)"
    )
    create_index = "CREATE INDEX IF NOT EXISTS ON readings (station)"

    @staticmethod
    def engine(tmp_path):
        return NoSQLEngine(data_dir=tmp_path)

    @staticmethod
    def table(engine):
        return engine.keyspace("db").table("readings")

    @staticmethod
    def stored_bytes(engine, tmp_path):
        """Commit-log records, write clock, and the flushed SSTable files."""
        keyspace = engine.keyspace("db")
        table = keyspace.table("readings")
        log = list(keyspace._commit_log.records())
        table.flush()
        files = sorted((tmp_path / "db" / "readings").glob("*-Data.db"))
        assert files
        return {
            "commit_log": log,
            "clock": table._write_clock,
            "sstables": [f.read_bytes() for f in files],
            "index": {
                name: sorted(index.lookup("north"))
                for name, index in table._indexes.items()
            },
        }


@pytest.fixture(params=[_SQL, _CQL], ids=lambda d: d.label)
def dialect(request):
    return request.param


def _connect(dialect, path, with_index=False):
    path.mkdir(parents=True, exist_ok=True)
    engine = dialect.engine(path)
    session = engine.connect()
    session.execute(dialect.create_namespace)
    session.execute(f"USE {dialect.namespace}")
    session.execute(dialect.create_table)
    if with_index:
        session.execute(dialect.create_index)
    return engine, session


@pytest.fixture
def session(dialect, tmp_path):
    return _connect(dialect, tmp_path)[1]


def _ids(session):
    return sorted(row["id"] for row in session.execute("SELECT * FROM readings"))


class TestOneSession:
    def test_both_sessions_are_the_kernel_session(self, session, dialect):
        assert isinstance(session, Session)
        assert isinstance(session.dialect, Dialect)
        assert session.dialect.label == dialect.label
        assert session.namespace == dialect.namespace

    def test_same_verb_sequence(self, session):
        insert = session.prepare(_INSERT)
        session.execute_prepared(insert, (9, "west", 1))
        assert session.execute_many(insert, _ROWS) == len(_ROWS)
        select = session.prepare("SELECT station FROM readings WHERE id = ?")
        assert session.execute_prepared(select, (9,)).one() == {"station": "west"}
        assert session.execute(select.text, (2,)).one() == {"station": "south"}
        assert session.execute("SELECT * FROM readings WHERE id = 4").one()["station"] is None
        warm = session.plan_cache.stats().hits
        assert session.execute_prepared(select, (1,)).one() == {"station": "north"}
        assert session.plan_cache.stats().hits == warm + 1

    def test_explain_analyze_is_cached_and_carries_the_run(self, session):
        session.execute_many(session.prepare(_INSERT), _ROWS)
        select = "SELECT * FROM readings WHERE id = ?"
        text = "EXPLAIN ANALYZE " + select
        first = session.execute(text, (3,))
        assert first.analyzed.result_rows[0]["station"] == "north"
        plain = session.execute("EXPLAIN " + select, (3,))
        assert [row["node"] for row in first] == [row["node"] for row in plain]
        hits = session.plan_cache.stats().hits
        again = session.execute(text, (5,))
        assert again.analyzed.result_rows[0]["station"] == "east"
        assert session.plan_cache.stats().hits == hits + 1

    def test_insert_template_shares_the_plan_cache(self, session, dialect):
        insert = session.prepare(_INSERT)
        session.execute_many(insert, _ROWS[:2])
        entry = session.plan_cache.peek((dialect.namespace, _INSERT))
        assert isinstance(entry, WriteTemplate)
        hits = session.plan_cache.stats().hits
        session.execute_many(insert, _ROWS[2:])
        assert session.plan_cache.stats().hits == hits + 1
        # A cached template never hijacks single-row execution.
        session.execute_prepared(insert, (6, "west", 3))
        assert _ids(session) == [1, 2, 3, 4, 5, 6]


class TestOneWritePath:
    @pytest.mark.parametrize("with_index", [False, True])
    def test_execute_many_matches_single_row_bytes(self, dialect, tmp_path, with_index):
        single_engine, single = _connect(dialect, tmp_path / "single", with_index)
        for row in _ROWS:
            single.execute(_INSERT, row)
        bulk_engine, bulk = _connect(dialect, tmp_path / "bulk", with_index)
        assert bulk.execute_many(bulk.prepare(_INSERT), iter(_ROWS)) == len(_ROWS)
        assert dialect.stored_bytes(bulk_engine, tmp_path / "bulk") == \
            dialect.stored_bytes(single_engine, tmp_path / "single")

    def test_constant_slots(self, dialect, tmp_path):
        single_engine, single = _connect(dialect, tmp_path / "single")
        single.execute("INSERT INTO readings (id, station, level) VALUES (1, 'fix', 3)")
        bulk_engine, bulk = _connect(dialect, tmp_path / "bulk")
        bulk.execute_many(
            bulk.prepare("INSERT INTO readings (id, station, level) VALUES (?, 'fix', 3)"),
            [(1,)],
        )
        assert dialect.stored_bytes(bulk_engine, tmp_path / "bulk") == \
            dialect.stored_bytes(single_engine, tmp_path / "single")

    def test_a_null_into_a_column_the_table_lacks_is_refused(self, session, dialect):
        """Template and generic path resolve every INSERT column before
        writing, whatever value it carries."""
        text = "INSERT INTO readings (id, bogus) VALUES (?, ?)"
        error = (ProgrammingError, InvalidRequest)
        with pytest.raises(error, match="table 'readings' has no column 'bogus'"):
            session.execute_many(session.prepare(text), [(1, None), (2, None)])
        with pytest.raises(error, match="table 'readings' has no column 'bogus'"):
            session.execute("INSERT INTO readings (id, bogus) VALUES (3, NULL)")
        assert _ids(session) == []

    def test_none_parameters_are_skipped(self, session):
        session.execute_many(session.prepare(_INSERT), [(1, None, None)])
        assert session.execute("SELECT * FROM readings WHERE id = 1").one() == {
            "id": 1, "station": None, "level": None,
        }

    def test_missing_primary_key_is_rejected(self, session, dialect):
        error = IntegrityError if dialect is _SQL else InvalidRequest
        with pytest.raises(error):
            session.execute_many(session.prepare(_INSERT), [(1, "a", 1), (None, "b", 2)])
        assert _ids(session) == [1]  # the row before the bad one stays

    def test_duplicate_key_keeps_the_rows_before_it(self, tmp_path):
        _, session = _connect(_SQL, tmp_path)
        with pytest.raises(IntegrityError):
            session.execute_many(session.prepare(_INSERT), [(1, "a", 1), (1, "b", 2)])
        rows = list(session.execute("SELECT * FROM readings"))
        assert len(rows) == 1 and rows[0]["station"] == "a"

    def test_cql_upsert_overwrites_duplicate_keys(self, tmp_path):
        _, session = _connect(_CQL, tmp_path)
        session.execute_many(session.prepare(_INSERT), [(1, "a", 1), (1, "b", 2)])
        assert session.execute("SELECT * FROM readings WHERE id = 1").one()["station"] == "b"

    def test_non_insert_dml_runs_the_generic_executor(self, session, dialect):
        session.execute_many(session.prepare(_INSERT), _ROWS)
        update = session.prepare("UPDATE readings SET level = ? WHERE id = ?")
        assert session.execute_many(update, [(100, 1), (200, 2)]) == 2
        assert session.plan_cache.peek((dialect.namespace, update.text)) is None
        levels = {r["id"]: r["level"] for r in session.execute("SELECT * FROM readings")}
        assert levels[1] == 100 and levels[2] == 200 and levels[3] == 7

    def test_cql_set_literal_with_bind_markers_falls_back(self, tmp_path):
        _, session = _connect(_CQL, tmp_path)
        session.execute("CREATE TABLE tags (id int PRIMARY KEY, members set<int>)")
        insert = session.prepare("INSERT INTO tags (id, members) VALUES (?, {?, ?})")
        assert session.execute_many(insert, [(1, 4, 5), (2, 6, 6)]) == 2
        assert session.plan_cache.peek(("db", insert.text)) is None
        assert session.execute("SELECT * FROM tags WHERE id = 1").one()["members"] == {4, 5}
        assert session.execute("SELECT * FROM tags WHERE id = 2").one()["members"] == {6}


class TestDDLInvalidatesTemplates:
    def test_drop_and_recreate_does_not_lose_writes(self, session, dialect):
        """Regression: a prepared INSERT used to keep its resolved table
        object forever, so rows written after DROP + CREATE went into the
        dropped table — reported as written, invisible to SELECT."""
        insert = session.prepare(_INSERT)
        assert session.execute_many(insert, _ROWS[:2]) == 2
        session.execute("DROP TABLE readings")
        session.execute(dialect.create_table)
        invalidations = session.plan_cache.stats().invalidations
        assert session.execute_many(insert, _ROWS[2:]) == 3
        assert session.plan_cache.stats().invalidations == invalidations + 1
        assert _ids(session) == [3, 4, 5]

    def test_create_index_rebuilds_the_template(self, session, dialect):
        insert = session.prepare(_INSERT)
        session.execute_many(insert, _ROWS[:2])
        session.execute(dialect.create_index)
        session.execute_many(insert, _ROWS[2:])
        rows = session.execute("SELECT * FROM readings WHERE station = 'north'")
        assert sorted(row["id"] for row in rows) == [1, 3]


class TestBulkHooks:
    def test_one_check_sweep_per_batch(self, session, dialect, monkeypatch):
        import repro.analysis.runner as runner

        swept = []
        real = runner.runtime_check

        def counting(target, label=None, **kwargs):
            swept.append((target, label))
            return real(target, label=label, **kwargs)

        monkeypatch.setenv("REPRO_CHECK", "1")
        monkeypatch.setattr(runner, "runtime_check", counting)
        insert = session.prepare(_INSERT)
        session.execute_many(insert, _ROWS[:3])
        assert swept == [(dialect.table(session.engine), f"execute_many[{_INSERT}]")]
        session.execute_many(insert, _ROWS[3:])
        assert len(swept) == 2
        session.execute_prepared(insert, (7, "x", 1))  # single rows are not swept
        assert len(swept) == 2

    def test_check_hook_is_idle_when_disabled(self, session, monkeypatch):
        import repro.analysis.runner as runner

        def boom(*args, **kwargs):
            raise AssertionError("REPRO_CHECK is off")

        monkeypatch.delenv("REPRO_CHECK", raising=False)
        monkeypatch.setattr(runner, "runtime_check", boom)
        assert session.execute_many(session.prepare(_INSERT), _ROWS) == len(_ROWS)

    def test_one_query_log_record_per_batch(self, session, dialect, monkeypatch):
        log = get_query_log()
        monkeypatch.setattr(log, "enabled", True)
        log.reset()
        try:
            insert = session.prepare(_INSERT)
            session.execute_many(insert, _ROWS)
            update = session.prepare("UPDATE readings SET level = ? WHERE id = ?")
            session.execute_many(update, [(1, 1), (2, 2)])
            records = log.records()
            assert [(r.dialect, r.rows) for r in records] == [
                (dialect.label, len(_ROWS)), (dialect.label, 2),
            ]
            assert len({r.fingerprint for r in records}) == 2
        finally:
            log.reset()
