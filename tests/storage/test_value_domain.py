"""One value domain for both engines, as a table.

Each row is a (type, value) pair and the verdict both dialects give it,
run through every statement that writes: ``execute`` and
``execute_many`` of an INSERT, UPDATE of a value, an INSERT addressed
by the value as a primary key, and a DELETE of it through ``execute``
and ``execute_many``.  Both dialects answer
every row alike, except the written dialect differences:

* SQL BOOLEAN also takes an int, as MySQL's TINYINT(1) does;
* SQL TEXT is VARCHAR(65535): VARCHAR(n) has a length limit;
* CQL ``set<T>`` has no SQL counterpart;
* a CQL DELETE names one row by its key, which it checks as an INSERT
  would, while a SQL DELETE is a predicate: a value no key can hold
  matches nothing.

A refused value raises the engine's own error class — no
``OverflowError`` or ``UnicodeEncodeError`` escapes — and leaves the
rows before it written, nothing after.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.nosqldb import types as cql_types
from repro.nosqldb.engine import NoSQLEngine
from repro.nosqldb.errors import InvalidRequest
from repro.sqldb import types as sql_types
from repro.sqldb.engine import SQLEngine
from repro.sqldb.errors import ProgrammingError

#: The verdict of a value every writing statement takes; a refusal's
#: verdict is what its message says: one of the messages below.
ACCEPT = True
TYPE = "expected"
RANGE = "out of range for"
UTF8 = "not valid UTF-8"
LENGTH = "exceeds"
#: Taken as a value, refused as a key: NaN equals no key, itself included.
VALUE_ONLY = "cannot be NaN"

NAN = float("nan")

ROWS = [
    ("int", 0, ACCEPT),
    ("int", -2 ** 31, ACCEPT),
    ("int", 2 ** 31 - 1, ACCEPT),
    ("int", 2 ** 31, RANGE),
    ("int", -2 ** 31 - 1, RANGE),
    ("int", 2 ** 40, RANGE),
    ("int", True, TYPE),
    ("int", "5", TYPE),
    ("int", 1.0, TYPE),
    ("bigint", -2 ** 63, ACCEPT),
    ("bigint", 2 ** 63 - 1, ACCEPT),
    ("bigint", 2 ** 40, ACCEPT),
    ("bigint", 2 ** 62, ACCEPT),
    ("bigint", 2 ** 63, RANGE),
    ("bigint", -2 ** 63 - 1, RANGE),
    ("bigint", False, TYPE),
    ("boolean", True, ACCEPT),
    ("boolean", False, ACCEPT),
    ("boolean", "t", TYPE),
    ("boolean", 1.5, TYPE),
    ("text", "", ACCEPT),
    ("text", "Fenian St", ACCEPT),
    ("text", "Dún Laoghaire 東 🚲", ACCEPT),
    ("text", "x" * 10_000, ACCEPT),
    ("text", "x" * 65_535, ACCEPT),
    ("text", "\ud800", UTF8),  # a lone surrogate
    ("text", "a\udfff", UTF8),
    ("text", 5, TYPE),
    ("text", b"x", TYPE),
    ("double", 0.5, ACCEPT),
    ("double", -0.0, ACCEPT),
    ("double", 3, ACCEPT),
    ("double", 2 ** 1000, ACCEPT),
    ("double", float("inf"), ACCEPT),
    ("double", NAN, VALUE_ONLY),
    ("double", 2 ** 1100, RANGE),  # an int no double can hold
    ("double", -2 ** 1100, RANGE),
    ("double", "1.0", TYPE),
    ("double", True, TYPE),
]

#: The written dialect differences: (type, value, SQL's verdict, CQL's
#: verdict); None where the dialect has no such type.
DIFFERENCES = [
    # SQL BOOLEAN is MySQL's TINYINT(1).
    ("boolean", 1, ACCEPT, TYPE),
    ("boolean", 0, ACCEPT, TYPE),
    # SQL TEXT is VARCHAR(65535); CQL text has no length limit.
    ("text", "x" * 65_536, LENGTH, ACCEPT),
    # CQL set<T> has no SQL counterpart.
    ("set<int>", {1, 2}, None, ACCEPT),
    ("set<int>", {-2 ** 31, 2 ** 31 - 1}, None, ACCEPT),
    ("set<int>", {1, 2 ** 31}, None, RANGE),
    ("set<int>", {-2 ** 31 - 1, 0}, None, RANGE),
    ("set<int>", {1, "x"}, None, TYPE),
    ("set<bigint>", {2 ** 40, 1}, None, ACCEPT),
    ("set<text>", {"a", "\udc00"}, None, UTF8),
    ("set<double>", {0.5, 2 ** 1100}, None, RANGE),
]

#: A value each type takes, written around the row's value.
GOOD = {"int": 7, "bigint": 7, "boolean": True, "text": "a", "double": 0.5,
        "set<int>": {1}, "set<bigint>": {1}, "set<text>": {"a"}, "set<double>": {0.5}}
#: A second key each key type takes.
OTHER = {"int": 8, "bigint": 8, "boolean": False, "text": "b", "double": 1.5}


def _same(stored, value) -> bool:
    return stored == value or (stored != stored and value != value)


class _Dialect:
    error: type
    spellings: dict

    def connect(self, kind: str):
        session = self.engine().connect()
        session.execute(f"CREATE {self.namespace} d")
        session.execute("USE d")
        spelled = self.spellings.get(kind, kind)
        session.execute(f"CREATE TABLE t (id {self.spellings['int']} PRIMARY KEY, v {spelled})")
        if not kind.startswith("set<"):
            session.execute(f"CREATE TABLE k (id {spelled} PRIMARY KEY, v {self.spellings['int']})")
        return session

    def attempt(self, run):
        """ACCEPT, or the message of the engine error ``run()`` raised;
        any other exception fails the test."""
        try:
            run()
        except self.error as error:
            return str(error)
        return ACCEPT

    def verdicts(self, kind: str, value) -> dict:
        """Each writing statement's verdict on ``value``, with what the
        table holds after it checked."""
        session = self.connect(kind)
        good = GOOD[kind]
        insert = "INSERT INTO t (id, v) VALUES (?, ?)"
        out = {}

        out["execute"] = self.attempt(lambda: session.execute(insert, (1, value)))
        rows = session.execute("SELECT id, v FROM t").rows
        assert [row["id"] for row in rows] == ([1] if out["execute"] is ACCEPT else [])
        assert not rows or _same(rows[0]["v"], value)
        session.execute("DELETE FROM t WHERE id = 1")

        prepared = session.prepare(insert)
        out["execute_many"] = self.attempt(
            lambda: session.execute_many(prepared, [(1, good), (2, value), (3, good)]))
        ids = sorted(row["id"] for row in session.execute("SELECT id FROM t").rows)
        assert ids == ([1, 2, 3] if out["execute_many"] is ACCEPT else [1])  # rows before it stay

        out["update"] = self.attempt(
            lambda: session.execute("UPDATE t SET v = ? WHERE id = 1", (value,)))
        stored = session.execute("SELECT v FROM t WHERE id = 1").one()["v"]
        assert _same(stored, value if out["update"] is ACCEPT else good)

        if not kind.startswith("set<"):  # a set is no key
            out["key"] = self.attempt(
                lambda: session.execute("INSERT INTO k (id, v) VALUES (?, 1)", (value,)))
            keys = session.execute("SELECT id FROM k").rows
            assert len(keys) == (out["key"] is ACCEPT)
            out["delete"] = self.attempt(
                lambda: session.execute("DELETE FROM k WHERE id = ?", (value,)))
            assert session.execute("SELECT id FROM k").rows == []
            out["delete_many"] = self.delete_many(session, good, OTHER[kind], value)
        return out

    def delete_many(self, session, good, other, value):
        """``execute_many`` of a key DELETE over the keys ``good, value,
        good`` against one ``execute`` per key, each run on a table
        holding ``good`` and ``other``: the same verdict, the same rows
        left, the same log bytes written, and the count of rows removed."""
        delete = "DELETE FROM k WHERE id = ?"
        keys = [(good,), (value,), (good,)]
        ids = lambda: sorted(row["id"] for row in session.execute("SELECT id FROM k").rows)

        def fill():
            session.execute("TRUNCATE k")
            for key in (good, other):
                session.execute("INSERT INTO k (id, v) VALUES (?, 1)", (key,))
            return self.log_bytes(session)

        log, removed = fill(), 0
        for key in keys:  # the reference: one execute per key, up to a refusal
            before = len(ids())
            verdict = self.attempt(lambda: session.execute(delete, key))
            removed += before - len(ids())
            if verdict is not ACCEPT:
                break
        left, logged = ids(), self.log_bytes(session) - log
        assert good not in left  # the key before a refused one is deleted
        log, prepared, counts = fill(), session.prepare(delete), []
        assert session.execute_many(prepared, []) == 0
        got = self.attempt(lambda: counts.append(session.execute_many(prepared, keys)))
        assert got == verdict, (self.label, got, verdict)
        assert counts == ([removed] if got is ACCEPT else [])
        assert ids() == left
        assert self.log_bytes(session) - log == logged  # nothing logged from the refusal on
        session.execute("TRUNCATE k")
        return got

    def check(self, kind: str, value, verdict) -> None:
        """Every writing statement gives ``value`` the row's verdict: a
        refusal says what was refused, spelling the type as the dialect
        does."""
        for path, got in self.verdicts(kind, value).items():
            want = expected(self, path, verdict)
            if want is ACCEPT or got is ACCEPT:
                assert got is want, (self.label, path, got)
            else:
                assert want in got, (self.label, path, got)
                if want != VALUE_ONLY and not kind.startswith("set<"):
                    assert self.spellings.get(kind, kind) in got, (self.label, path, got)


class SQL(_Dialect):
    label = "sql"
    error = ProgrammingError
    engine = SQLEngine
    namespace = "DATABASE"
    log_bytes = staticmethod(lambda session: session.engine.database("d").redo_log_bytes)
    spellings = {"int": "INT", "bigint": "BIGINT", "boolean": "BOOLEAN", "text": "TEXT",
                 "double": "DOUBLE"}


class CQL(_Dialect):
    label = "cql"
    error = InvalidRequest
    engine = NoSQLEngine
    namespace = "KEYSPACE"
    log_bytes = staticmethod(lambda session: session.engine.keyspace("d").commit_log_bytes)
    spellings = {"int": "int"}


def expected(dialect, path: str, verdict):
    """What ``path`` answers a value of the row's ``verdict``."""
    if path.startswith("delete") and isinstance(dialect, SQL):
        return ACCEPT  # a predicate: a value no key can hold matches nothing
    if verdict == VALUE_ONLY:
        return VALUE_ONLY if path in ("key", "delete", "delete_many") else ACCEPT
    return verdict


def _id(row) -> str:
    value = row[1]
    text = repr(value)
    if isinstance(value, set) and any(isinstance(v, str) for v in value):
        # A set repr follows str hashing, salted per process: fix the
        # order so the test id is the same in every run.
        order = sorted(value, key=lambda v: (isinstance(v, str), str(v)))
        text = "{" + ", ".join(map(repr, order)) + "}"
    return f"{row[0]}-{text if len(text) <= 24 else text[:20] + '...'}"


@pytest.mark.parametrize("row", ROWS, ids=_id)
def test_both_dialects_give_the_row_its_verdict(row):
    kind, value, verdict = row
    for dialect in (SQL(), CQL()):
        dialect.check(kind, value, verdict)


@pytest.mark.parametrize("row", DIFFERENCES, ids=_id)
def test_a_written_dialect_difference(row):
    kind, value, sql, cql = row
    for dialect, verdict in ((SQL(), sql), (CQL(), cql)):
        if verdict is not None:
            dialect.check(kind, value, verdict)


# ----------------------------------------------------------------------
# the whole-column path: one contract for both engines
# ----------------------------------------------------------------------
COLUMNS = [
    # (type name, values every engine takes, a value each refuses)
    ("int", [1, None, 2 ** 31 - 1, -2 ** 31, 1], 2 ** 31),
    ("bigint", [-2 ** 63, 5, 5, 5], True),
    ("boolean", [True, False, None, True], "t"),
    ("text", ["ab", "ab", None, "abc", "ab"], "\ud800"),
    ("text", ["x"], 5),
    ("double", [0.5, -0.0, 0.0, None], 2 ** 1100),
    ("double", [1.5, NAN], "x"),
]
SETS = [
    ("set<int>", [{1, 2}, None, {-2 ** 31, 2 ** 31 - 1}], {0, 2 ** 31}),
    ("set<text>", [{"a"}, {"a", "b"}], {"\udc00"}),
]
CASES = [
    pytest.param(module, *column, id=f"{label}-{column[0]}-{column[2]!r:.12}")
    for label, module, columns in (("sql", sql_types, COLUMNS), ("cql", cql_types, COLUMNS + SETS))
    for column in columns
]


def _cells(column_type, values):
    """Each value's own encoding, a None as the engine's NULL cell."""
    return [column_type.null if value is None else column_type.encode(value) for value in values]


@pytest.mark.parametrize("module, name, good, bad", CASES)
def test_encode_column_gives_the_cells_before_the_first_refusal(module, name, good, bad):
    column_type = module.parse_type(name)
    cells = _cells(column_type, good)
    assert column_type.encode_column(good) == (cells, None)
    encoded, error = column_type.encode_column(good + [bad] + good)
    assert encoded == cells and type(error) is column_type.error


@pytest.mark.parametrize("module, name, good, bad", CASES)
def test_an_all_valid_column_validates_no_value_on_its_own(module, name, good, bad):
    column_type = module.parse_type(name)
    with mock.patch.object(type(column_type), "validate", side_effect=AssertionError):
        assert column_type.encode_column(good) == (_cells(column_type, good), None)
