"""What a table stores depends on its rows, not on the history that wrote them.

The first pair of histories: a secondary index made before the rows
against one made after them.  The write path indexes the values it is
handed, the backfill the values it reads back from stored rows, so both
must index a value as the column stores it
(:meth:`repro.storage.values.ValueType.canonical`): an int bound into a
DOUBLE column is the float it is stored as, whichever came first.  Each
pair must leave equal index entries, value types included, and equal
index bytes, in both engines; an UPDATE that assigns an int must index
what it stores too.
"""

from __future__ import annotations

import pytest

from repro.nosqldb.engine import NoSQLEngine
from repro.sqldb.engine import SQLEngine

ROWS = [(i, i) for i in range(50)]


def sql_index(index_first: bool, update: bool = False):
    session = SQLEngine().connect()
    session.execute("CREATE DATABASE d")
    session.execute("USE d")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, x DOUBLE)")
    statements = ["CREATE INDEX ix ON t (x)", "rows"]
    for statement in statements if index_first else reversed(statements):
        if statement == "rows":
            session.execute_many(session.prepare("INSERT INTO t (id, x) VALUES (?, ?)"), ROWS)
            if update:
                session.execute("UPDATE t SET x = ? WHERE id = ?", (7, 3))
        else:
            session.execute(statement)
    return session.engine.database("d").table("t")._secondary["x"]


def cql_index(index_first: bool, update: bool = False):
    session = NoSQLEngine().connect()
    session.execute("CREATE KEYSPACE d")
    session.execute("USE d")
    session.execute("CREATE TABLE t (id int PRIMARY KEY, x double)")
    statements = ["CREATE INDEX ix ON t (x)", "rows"]
    for statement in statements if index_first else reversed(statements):
        if statement == "rows":
            session.execute_many(session.prepare("INSERT INTO t (id, x) VALUES (?, ?)"), ROWS)
            if update:
                session.execute("UPDATE t SET x = ? WHERE id = ?", (7, 3))
        else:
            session.execute(statement)
    return session.engine.keyspace("d").table("t")._indexes["x"]._tree


def entries(tree):
    return [(type(value), value, type(key), key) for value, key in tree.keys()]


@pytest.mark.parametrize("index", [sql_index, cql_index], ids=["sql", "cql"])
@pytest.mark.parametrize("update", [False, True], ids=["insert", "update"])
def test_index_before_and_after_the_rows_store_the_same(index, update):
    before, after = index(True, update), index(False, update)
    assert entries(before) == entries(after)
    assert {value_type for value_type, *_ in entries(before)} == {float}
    assert before.size_bytes == after.size_bytes
