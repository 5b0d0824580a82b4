"""Golden outcomes of the SQL and CQL front ends.

Every corpus entry is a short script of statements.  Each script runs
through a fresh session on a fixed fixture schema, once per dialect, and
every statement's outcome is compared with the recorded one: the result
class, its rows (column order included) and ``rowcount``, or the
exception class and message.  The pins are outcomes, not AST shapes, so
the parsers and executors behind them can be reorganised freely.

EXPLAIN ANALYZE rows keep every column except the wall and CPU timings.

Regenerate ``front_end_golden.json`` (only when a behaviour change is
deliberate) with::

    PYTHONPATH=src python tests/query/test_front_end_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.nosqldb.engine import NoSQLEngine
from repro.sqldb.engine import SQLEngine

GOLDEN = Path(__file__).with_name("front_end_golden.json")

FIXTURES = {
    "sql": [
        "CREATE DATABASE db",
        "USE db",
        "CREATE TABLE t (id INT PRIMARY KEY, grp VARCHAR(8), val INT, note VARCHAR(16))",
        "CREATE TABLE u (tid INT NOT NULL, k INT, w INT, PRIMARY KEY (tid, k)) ENGINE=INNODB",
        "CREATE INDEX t_grp ON t (grp)",
        "INSERT INTO t (id, grp, val, note) VALUES (1, 'a', 10, 'x'), (2, 'b', 20, NULL), "
        "(3, 'a', 30, 'y'), (4, 'c', NULL, 'z'), (5, 'b', 50, 'x')",
        "INSERT INTO u (tid, k, w) VALUES (1, 1, 100), (1, 2, 200), (3, 1, 300), (5, 7, 700)",
    ],
    "cql": [
        "CREATE KEYSPACE db",
        "USE db",
        "CREATE TABLE t (id int PRIMARY KEY, grp text, val int, note text, tags set<int>)",
        "CREATE TABLE u (id int PRIMARY KEY, tid int, w int) WITH COMPRESSION = false",
        "CREATE INDEX ON t (grp)",
        "INSERT INTO t (id, grp, val, note, tags) VALUES (1, 'a', 10, 'x', {1, 2})",
        "INSERT INTO t (id, grp, val, tags) VALUES (2, 'b', 20, {})",
        "INSERT INTO t (id, grp, val, note) VALUES (3, 'a', 30, 'y')",
        "INSERT INTO t (id, grp, note) VALUES (4, 'c', 'z')",
        "INSERT INTO t (id, grp, val, note, tags) VALUES (5, 'b', 50, 'x', {5})",
        "INSERT INTO u (id, tid, w) VALUES (1, 1, 100)",
        "INSERT INTO u (id, tid, w) VALUES (2, 3, 300)",
    ],
}

ALL = "SELECT * FROM t"

#: Scripts: each is a list of statements, a statement being its text or
#: ``(text, params)``.
CORPUS = [
    # -- reads ---------------------------------------------------------
    [ALL],
    ["SELECT id, val FROM t WHERE id = 3"],
    ["SELECT * FROM t WHERE id = 99"],
    ["SELECT * FROM t WHERE id IN (1, 3, 99)"],
    ["SELECT note, id FROM t WHERE id IN (5, 1)"],
    ["SELECT * FROM t WHERE grp = 'a'"],
    ["SELECT id FROM t WHERE grp = 'b' AND val > 25"],
    ["SELECT id FROM t WHERE grp = 'b' AND val > 25 ALLOW FILTERING"],
    ["SELECT * FROM t WHERE val > 15"],
    ["SELECT * FROM t WHERE val > 15 ALLOW FILTERING"],
    ["SELECT id FROM t WHERE val >= 20 AND val <= 30 ALLOW FILTERING"],
    ["SELECT id FROM t WHERE val < 20 ALLOW FILTERING"],
    ["SELECT id FROM t WHERE val <> 10"],
    ["SELECT id FROM t WHERE val != 10 ALLOW FILTERING"],
    ["SELECT id FROM t WHERE note IS NULL"],
    ["SELECT id FROM t WHERE note IS NOT NULL AND val IS NULL"],
    ["SELECT id FROM t WHERE note IS NULL ALLOW FILTERING"],
    ["SELECT id FROM t ORDER BY val DESC"],
    ["SELECT id, val FROM t ORDER BY val ASC LIMIT 2"],
    ["SELECT id FROM t ORDER BY id LIMIT 0"],
    ["SELECT id FROM t LIMIT 3"],
    ["SELECT id FROM t WHERE val > 0 ORDER BY note DESC LIMIT 3 ALLOW FILTERING"],
    ["SELECT COUNT(*) FROM t"],
    ["SELECT count(*) FROM t LIMIT 2"],
    ["SELECT COUNT(*) FROM t WHERE grp = 'a'"],
    ["SELECT COUNT(*) FROM t WHERE val > 10 ALLOW FILTERING"],
    ["SELECT COUNT(*) FROM t ORDER BY id LIMIT 1"],
    [("SELECT * FROM t WHERE id = ?", (3,))],
    [("SELECT id FROM t WHERE id IN (?, ?)", (1, 2))],
    [("SELECT id FROM t WHERE val > ? ALLOW FILTERING", (25,))],
    ["SELECT * FROM t WHERE id = ?"],
    [("SELECT * FROM t WHERE id = ? AND val = ?", (1,))],
    ["SELECT * FROM db.t WHERE id = 1"],
    ["SELECT * FROM nope.t"],
    ["SELECT * FROM missing"],
    ["SELECT nope FROM t"],
    ["SELECT nope FROM t WHERE id = 1"],
    ["SELECT * FROM t ORDER BY nope"],
    ["SELECT * FROM t WHERE nope = 1"],
    ["SELECT * FROM t WHERE nope = 1 ALLOW FILTERING"],
    ["SELECT * FROM t WHERE note = 'x'"],
    ["SELECT id FROM t WHERE note = \"x\""],
    ["SELECT id FROM t WHERE note = 'it''s'"],
    ["SELECT id FROM t WHERE note = 'it\\'s'"],
    ["SELECT id FROM t WHERE val = 1e1"],
    ["SELECT id FROM t WHERE val = 10.0 ALLOW FILTERING"],
    ["SELECT id FROM t WHERE val > -5 ALLOW FILTERING"],
    ["SELECT id FROM t WHERE id = TRUE"],
    ["SELECT id FROM t WHERE id = NULL"],
    ["SELECT * FROM t;"],
    ["select id from t where id = 2"],
    ["SELECT t.id FROM t WHERE t.id = 2"],
    ["SELECT x.id FROM t AS x WHERE x.val > 10"],
    ["SELECT x.id, val FROM t x WHERE x.grp = 'a'"],
    ["SELECT y.id FROM t x"],
    ["SELECT * FROM t x JOIN u ON x.id = u.tid"],
    ["SELECT x.id, u.w FROM t x INNER JOIN u ON u.tid = x.id WHERE u.w > 150"],
    ["SELECT id FROM t x JOIN u ON x.id = u.tid"],
    ["SELECT * FROM t x JOIN t x ON x.id = x.id"],
    ["SELECT * FROM t JOIN u ON t.id = t.val"],
    ["SELECT * FROM u WHERE tid = 1"],
    ["SELECT * FROM u WHERE tid = 1 AND k = 2"],
    ["SELECT grp, SUM(val), COUNT(*) FROM t GROUP BY grp"],
    ["SELECT grp, AVG(val), MIN(val), MAX(val) FROM t GROUP BY grp ORDER BY grp DESC"],
    ["SELECT SUM(val), COUNT(val) FROM t"],
    ["SELECT SUM(val) FROM t WHERE id = 99"],
    ["SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY count LIMIT 1"],
    ["SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY nope"],
    ["SELECT grp FROM t GROUP BY grp"],
    ["SELECT SUM(*) FROM t"],
    ["SELECT val, COUNT(*) FROM t GROUP BY grp"],
    ["SELECT count FROM t"],
    ["SELECT COUNT(val) FROM t"],
    # -- lexical edge cases --------------------------------------------
    ["SELECT id FROM t -- trailing\nWHERE id = 1"],
    ["SELECT id FROM t # hash\nWHERE id = 1"],
    ["SELECT /* block\ncomment */ id FROM t WHERE id = 1"],
    ["SELECT id FROM t // slashes\nWHERE id = 1"],
    ["SELECT `id` FROM `t` WHERE `id` = 2"],
    ["SELECT id FROM t WHERE id = 1 /* unterminated"],
    ["SELECT 'unterminated"],
    ["SELECT * FROM t WHERE id = $"],
    ["SELECT * FROM t WHERE id = [1]"],
    ["SELECT * FROM t WHERE id = 1 : 2"],
    # -- EXPLAIN -------------------------------------------------------
    ["EXPLAIN SELECT * FROM t WHERE id = 1"],
    ["EXPLAIN SELECT * FROM t WHERE id IN (1, 2)"],
    ["EXPLAIN SELECT * FROM t WHERE grp = 'a' AND val > 5"],
    ["EXPLAIN SELECT * FROM t WHERE val > 5 ALLOW FILTERING"],
    ["EXPLAIN SELECT * FROM t WHERE note IS NULL"],
    ["EXPLAIN SELECT COUNT(*) FROM t"],
    ["EXPLAIN SELECT count(*) FROM t LIMIT 5"],
    ["EXPLAIN SELECT id FROM t ORDER BY val LIMIT 2"],
    ["EXPLAIN SELECT * FROM t x JOIN u ON x.id = u.tid"],
    ["EXPLAIN SELECT * FROM u x JOIN t ON t.grp = x.w"],
    ["EXPLAIN SELECT * FROM u WHERE tid = 1 AND w > 5"],
    ["EXPLAIN SELECT grp, SUM(val) FROM t GROUP BY grp ORDER BY grp"],
    [("EXPLAIN SELECT * FROM t WHERE val != ?", (3,))],
    ["EXPLAIN SELECT * FROM t WHERE val > 5"],
    ["EXPLAIN SELECT * FROM missing"],
    ["EXPLAIN ANALYZE SELECT * FROM t WHERE id = 2"],
    ["EXPLAIN ANALYZE SELECT COUNT(*) FROM t"],
    ["EXPLAIN ANALYZE SELECT id FROM t WHERE val > 15 ALLOW FILTERING"],
    [("EXPLAIN ANALYZE SELECT * FROM t WHERE id = ?", (4,))],
    ["EXPLAIN UPDATE t SET val = 1 WHERE id = 1"],
    ["EXPLAIN ANALYZE"],
    ["EXPLAIN"],
    # -- INSERT --------------------------------------------------------
    ["INSERT INTO t (id, grp, val) VALUES (9, 'z', 90)", "SELECT * FROM t WHERE id = 9"],
    ["INSERT INTO t (id, grp) VALUES (9, 'z'), (10, 'y')", ALL],
    ["INSERT INTO t (id, grp) VALUES (9, 'z');", "SELECT COUNT(*) FROM t"],
    ["INSERT INTO t (id, grp) VALUES (9)"],
    ["INSERT INTO t (id) VALUES (9, 'z')"],
    ["INSERT INTO t (id, grp) VALUES (9, 'z'), (10)"],
    ["INSERT INTO t (id, id) VALUES (9, 10)"],
    ["INSERT INTO t (grp) VALUES ('q')"],
    ["INSERT INTO t (id, nope) VALUES (9, 1)"],
    ["INSERT INTO t (id, val) VALUES (9, 'text')"],
    ["INSERT INTO t (id, note) VALUES (2, NULL)", "SELECT * FROM t WHERE id = 2"],
    ["INSERT INTO t (id, note) VALUES (2, 'new')", "SELECT * FROM t WHERE id = 2"],
    [("INSERT INTO t (id, grp, val) VALUES (?, ?, ?)", (9, "p", 1)), "SELECT * FROM t WHERE id = 9"],
    [("INSERT INTO t (id, grp, val) VALUES (?, 'k', ?)", (9,))],
    ["INSERT INTO db.t (id, val) VALUES (11, 110)", "SELECT id, val FROM db.t WHERE id = 11"],
    ["INSERT INTO missing (id) VALUES (1)"],
    ["INSERT INTO t (id, tags) VALUES (7, {})", "SELECT * FROM t WHERE id = 7"],
    [("INSERT INTO t (id, tags) VALUES (?, {?, ?})", (8, 3, 4)), "SELECT * FROM t WHERE id = 8"],
    ["INSERT INTO t (id, tags) VALUES (7, {1, 2"],
    ["INSERT INTO t (id, val) VALUES (12, TRUE)", "SELECT * FROM t WHERE id = 12"],
    ["INSERT INTO t (id, val) VALUES (13, 2.5)"],
    ["INSERT t (id) VALUES (1)"],
    ["INSERT INTO t (id) VALUE (1)"],
    ["INSERT INTO t id VALUES (1)"],
    ["INSERT INTO t (id) VALUES (grp)"],
    # -- UPDATE --------------------------------------------------------
    ["UPDATE t SET val = 11 WHERE id = 1", "SELECT * FROM t WHERE id = 1"],
    ["UPDATE t SET val = 0, note = 'n' WHERE grp = 'a'", ALL],
    ["UPDATE t SET val = 1", ALL],
    [("UPDATE t SET val = ?, note = ? WHERE id = ?", (7, "q", 3)), "SELECT * FROM t WHERE id = 3"],
    ["UPDATE t SET nope = 1 WHERE id = 1"],
    ["UPDATE t SET val = 1 WHERE id = 1 AND grp = 'a'", ALL],
    ["UPDATE t SET val = 1 WHERE id > 3", ALL],
    ["UPDATE t SET val = 1 WHERE id = 77", "SELECT COUNT(*) FROM t"],
    ["UPDATE t SET id = 9 WHERE id = 1", ALL],
    ["UPDATE t SET val = NULL WHERE id = 1", "SELECT * FROM t WHERE id = 1"],
    ["UPDATE missing SET val = 1 WHERE id = 1"],
    ["UPDATE t val = 1 WHERE id = 1"],
    ["UPDATE t SET val WHERE id = 1"],
    # -- DELETE --------------------------------------------------------
    ["DELETE FROM t WHERE id = 2", ALL],
    ["DELETE FROM t WHERE val > 15", ALL],
    ["DELETE FROM t", "SELECT COUNT(*) FROM t"],
    ["DELETE FROM t WHERE id IN (1, 2)", ALL],
    ["DELETE FROM t WHERE note IS NULL", ALL],
    [("DELETE FROM t WHERE id = ?", (5,)), ALL],
    ["DELETE t WHERE id = 1"],
    ["DELETE FROM missing WHERE id = 1"],
    # -- TRUNCATE / USE ------------------------------------------------
    ["TRUNCATE t", "SELECT COUNT(*) FROM t"],
    ["TRUNCATE TABLE t", "SELECT COUNT(*) FROM t"],
    ["TRUNCATE db.t", "SELECT COUNT(*) FROM t"],
    ["TRUNCATE missing"],
    ["TRUNCATE"],
    ["USE db", "SELECT COUNT(*) FROM t"],
    ["USE nope", "SELECT COUNT(*) FROM t"],
    ["USE"],
    ["USE db extra"],
    # -- DDL -----------------------------------------------------------
    ["CREATE DATABASE db2", "USE db2", ALL],
    ["CREATE KEYSPACE db2", "USE db2", ALL],
    ["CREATE DATABASE IF NOT EXISTS db"],
    ["CREATE DATABASE db"],
    ["CREATE KEYSPACE IF NOT EXISTS db"],
    ["CREATE KEYSPACE db"],
    ["CREATE KEYSPACE k2 WITH DURABLE_WRITES = false", "USE k2"],
    ["CREATE KEYSPACE k2 WITH DURABLE_WRITES = maybe"],
    ["CREATE SCHEMA s2", "USE s2"],
    ["CREATE DATABASE IF EXISTS db"],
    ["CREATE TABLE t (id INT PRIMARY KEY)"],
    ["CREATE TABLE IF NOT EXISTS t (id INT PRIMARY KEY)", "SELECT COUNT(*) FROM t"],
    ["CREATE TABLE n (id int, v text, PRIMARY KEY (id))",
     "INSERT INTO n (id, v) VALUES (1, 'one')", "SELECT * FROM n"],
    ["CREATE TABLE n (a INT, b INT, PRIMARY KEY (a, b))",
     "INSERT INTO n (a, b) VALUES (2, 1), (1, 2)", "SELECT * FROM n"],
    ["CREATE TABLE n (id int)"],
    ["CREATE TABLE n (id int PRIMARY KEY, s set<int>) WITH COMPRESSION = true",
     "INSERT INTO n (id, s) VALUES (1, {3})", "SELECT * FROM n"],
    ["CREATE TABLE n (id int PRIMARY KEY) WITH COMPRESSION = 1"],
    ["CREATE TABLE n (id VARCHAR(8) NOT NULL PRIMARY KEY) ENGINE=INNODB DEFAULT CHARSET=utf8",
     "INSERT INTO n (id) VALUES ('a')", "SELECT * FROM n"],
    ["CREATE TABLE n (id INT PRIMARY KEY, v INT NOT NULL)", "INSERT INTO n (id) VALUES (1)"],
    ["CREATE TABLE n (id VARCHAR(x) PRIMARY KEY)"],
    ["CREATE TABLE n (id blob PRIMARY KEY)"],
    ["CREATE TABLE n (id int PRIMARY KEY, id int)"],
    ["CREATE TABLE db.n (id int PRIMARY KEY)", "SELECT * FROM n"],
    ["CREATE TABLE nope.n (id int PRIMARY KEY)"],
    ["CREATE COLUMNFAMILY n (id int PRIMARY KEY)", "SELECT * FROM n"],
    ["CREATE TABLE n (id int PRIMARY KEY"],
    ["CREATE INDEX i ON t (val)", "SELECT id FROM t WHERE val = 30", "EXPLAIN SELECT id FROM t WHERE val = 30"],
    ["CREATE INDEX ON t (val)", "EXPLAIN SELECT id FROM t WHERE val = 30"],
    ["CREATE INDEX IF NOT EXISTS ON t (grp)"],
    ["CREATE INDEX t_grp ON t (grp)"],
    ["CREATE INDEX i ON t (nope)"],
    ["CREATE INDEX i ON missing (val)"],
    ["CREATE INDEX i ON t val"],
    ["CREATE VIEW v"],
    ["DROP TABLE t", ALL],
    ["DROP TABLE t", "CREATE TABLE t (id int PRIMARY KEY)", ALL],
    ["DROP TABLE nope"],
    ["DROP DATABASE db", ALL],
    ["DROP KEYSPACE db", ALL],
    ["DROP INDEX t_grp"],
    ["DROP"],
    # -- CQL batches ---------------------------------------------------
    ["BEGIN BATCH INSERT INTO t (id, val) VALUES (20, 1); UPDATE t SET val = 2 WHERE id = 20; "
     "DELETE FROM t WHERE id = 1; APPLY BATCH", ALL],
    ["BEGIN BATCH INSERT INTO t (id, val) VALUES (20, 1) APPLY BATCH", "SELECT COUNT(*) FROM t"],
    [("BEGIN BATCH INSERT INTO t (id, val) VALUES (?, ?); "
      "INSERT INTO t (id, val) VALUES (?, ?); APPLY BATCH", (21, 1, 22, 2)), ALL],
    ["BEGIN BATCH APPLY BATCH"],
    ["BEGIN BATCH SELECT * FROM t; APPLY BATCH"],
    ["BEGIN BATCH INSERT INTO t (id) VALUES (1);"],
    ["BEGIN INSERT INTO t (id) VALUES (1); APPLY BATCH"],
    ["BEGIN BATCH UPDATE t SET val = 1 WHERE grp = 'a'; APPLY BATCH", ALL],
    # -- syntax errors -------------------------------------------------
    ["SELECT FROM"],
    ["SELECT * FROM"],
    ["SELECT *\nFROM t WHERE"],
    ["SELECT * FROM t WHERE id %"],
    ["SELECT * FROM t WHERE id"],
    ["SELECT * FROM t WHERE id = 1 AND"],
    ["SELECT * FROM t LIMIT x"],
    ["SELECT * FROM t LIMIT"],
    ["SELECT * FROM t ORDER id"],
    ["SELECT * FROM t ORDER BY"],
    ["SELECT * FROM t WHERE id IN ()"],
    ["SELECT * FROM t WHERE id IN (1,"],
    ["SELECT * FROM t WHERE id IN 1"],
    ["SELECT COUNT(* FROM t"],
    ["SELECT COUNT(id) FROM t"],
    ["SELECT * FROM t WHERE id = 1 ALLOW"],
    ["SELECT * FROM t WHERE note IS 'x'"],
    ["SELECT * FROM t JOIN u"],
    ["SELECT * FROM t GROUP grp"],
    ["SELECT * FROM t WHERE id == 1"],
    ["SELECT * FROM t; SELECT 1"],
    ["GRANT ALL"],
    [""],
    ["   "],
    [";"],
    ["42"],
    ["'text'"],
]


def _script(entry):
    for statement in entry:
        yield (statement, ()) if isinstance(statement, str) else statement


def _value(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return value


def _outcome(session, text, params):
    try:
        result = session.execute(text, params)
    except Exception as exc:  # the outcome under test is the exception itself
        return {"error": type(exc).__name__, "message": str(exc)}
    if result is None:
        return {"result": None}
    rows = [
        [[key, _value(value)] for key, value in row.items() if key not in ("wall_ms", "cpu_ms")]
        for row in result.rows
    ]
    return {"result": type(result).__name__, "rows": rows, "rowcount": result.rowcount}


def _fresh_session(dialect):
    session = (SQLEngine() if dialect == "sql" else NoSQLEngine()).connect()
    for statement in FIXTURES[dialect]:
        session.execute(statement)
    return session


def run_script(dialect, entry):
    session = _fresh_session(dialect)
    return [_outcome(session, text, params) for text, params in _script(entry)]


def _entry_id(entry):
    text = entry[0] if isinstance(entry[0], str) else entry[0][0]
    return " ".join(text.split())[:60] or "<empty>"


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("dialect", ["sql", "cql"])
@pytest.mark.parametrize("index", range(len(CORPUS)), ids=lambda i: _entry_id(CORPUS[i]))
def test_outcomes_match_the_recording(dialect, index):
    recorded = _load()[index]
    # JSON has no tuples; compare through the same round trip.
    assert recorded["script"] == _json([list(s) for s in _script(CORPUS[index])])
    assert recorded[dialect] == _json(run_script(dialect, CORPUS[index]))


def _json(value):
    return json.loads(json.dumps(value))


def test_recording_covers_the_corpus():
    assert len(_load()) == len(CORPUS)


def _record():
    entries = []
    for entry in CORPUS:
        entries.append({
            "script": [list(s) for s in _script(entry)],
            "sql": run_script("sql", entry),
            "cql": run_script("cql", entry),
        })
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _record()
