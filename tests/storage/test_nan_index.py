"""A NaN is never indexed, in either engine.

``(nan, pk)`` compares with nothing, so one NaN entry in a secondary
index B-tree leaves its order undefined and a lookup of an ordinary
value can stop short.  ``x = NaN`` matches no row under
:func:`~repro.query.expr.compare`, so no index has to find a NaN: every
index write skips it as it skips NULL
(:func:`repro.storage.values.indexable`), and the checkers derive their
expected entries with the same predicate.
"""

from __future__ import annotations

import pytest

from repro.analysis.heap_check import heap_check
from repro.analysis.sstable_check import columnfamily_check
from repro.nosqldb.engine import NoSQLEngine
from repro.sqldb.engine import SQLEngine
from repro.storage.values import indexable

NAN = float("nan")
N_ROWS = 400
#: Every third row stores NaN; the rest hold ``i % 18 - 5``.
ROWS = [(i, NAN if i % 3 == 0 else float(i % 18 - 5)) for i in range(N_ROWS)]
ZERO_IDS = sorted(i for i, x in ROWS if x == 0.0)
NAN_IDS = [i for i, x in ROWS if x != x]


def sql_session(indexed: bool):
    session = SQLEngine().connect()
    session.execute("CREATE DATABASE d")
    session.execute("USE d")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, x DOUBLE)")
    if indexed:
        session.execute("CREATE INDEX ix ON t (x)")
    return session, lambda: session.engine.database("d").table("t"), heap_check, ""


def cql_session(indexed: bool):
    session = NoSQLEngine().connect()
    session.execute("CREATE KEYSPACE d")
    session.execute("USE d")
    session.execute("CREATE TABLE t (id int PRIMARY KEY, x double)")
    if indexed:
        session.execute("CREATE INDEX ix ON t (x)")
    filtering = "" if indexed else " ALLOW FILTERING"
    return session, lambda: session.engine.keyspace("d").table("t"), columnfamily_check, filtering


DIALECTS = {"sql": sql_session, "cql": cql_session}


def filled(dialect: str, indexed: bool = True):
    session, table, check, filtering = DIALECTS[dialect](indexed)
    insert = session.prepare("INSERT INTO t (id, x) VALUES (?, ?)")
    assert session.execute_many(insert, ROWS) == N_ROWS
    return session, table, check, filtering


def ids(session, value, filtering: str = ""):
    rows = session.execute(f"SELECT id FROM t WHERE x = ?{filtering}", (value,)).rows
    return sorted(row["id"] for row in rows)


def assert_clean(check, table):
    report = check(table)
    assert report.ok, "\n".join(report.format_lines())


def test_indexable_refuses_null_and_nan_only():
    assert not indexable(None) and not indexable(NAN)
    assert all(map(indexable, (0, 0.0, -0.0, "", False, float("inf"))))


@pytest.mark.parametrize("dialect", DIALECTS)
def test_an_index_beside_nan_rows_finds_every_match(dialect):
    session, table, check, _ = filled(dialect)
    assert len(ZERO_IDS) == 22
    assert ids(session, 0.0) == ZERO_IDS
    assert_clean(check, table())


@pytest.mark.parametrize("dialect", DIALECTS)
def test_deleting_the_nan_rows_leaves_the_index_clean(dialect):
    session, table, check, _ = filled(dialect)
    delete = session.prepare("DELETE FROM t WHERE id = ?")
    session.execute_many(delete, [(i,) for i in NAN_IDS])
    assert_clean(check, table())
    assert ids(session, 0.0) == ZERO_IDS
    assert len(table()) == N_ROWS - len(NAN_IDS)


@pytest.mark.parametrize("indexed", [True, False], ids=["index", "scan"])
@pytest.mark.parametrize("dialect", DIALECTS)
def test_x_equals_nan_matches_no_row(dialect, indexed):
    session, table, check, filtering = filled(dialect, indexed)
    assert ids(session, NAN, filtering) == []
    assert ids(session, 0.0, filtering) == ZERO_IDS
    assert_clean(check, table())


@pytest.mark.parametrize("dialect", DIALECTS)
def test_updates_to_and_from_nan_keep_the_index_clean(dialect):
    session, table, check, _ = filled(dialect)
    session.execute("UPDATE t SET x = ? WHERE id = ?", (NAN, 5))  # held 0.0
    session.execute("UPDATE t SET x = ? WHERE id = ?", (0.0, 3))  # held NaN
    assert ids(session, 0.0) == sorted(set(ZERO_IDS) - {5} | {3})
    assert_clean(check, table())
