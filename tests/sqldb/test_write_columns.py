"""The SQL column write loop against the row loop it replaced.

``Table.insert_columns`` takes a bulk write column-wise: each column is
validated and encoded whole with its type resolved once, each row is
assembled from the cells, and one B-tree descent both refuses a
duplicate key and inserts.  The row loop it replaced — the prepared
INSERT's ``dict_rows`` transpose plus ``Table.insert_rows``, as they
stood — is frozen below as the oracle.  Both are driven through the same
batches, good rows and bad rows at random positions, and must leave the
same redo and binlog bytes, clustered and secondary pages, row count,
version and dirty-page count, and raise the same exception.
"""

from __future__ import annotations

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.sqldb import table as table_module
from repro.sqldb.database import Database
from repro.sqldb.engine import SQLEngine
from repro.sqldb.errors import IntegrityError, ProgrammingError
from repro.sqldb.table import ROW_HEADER_BYTES, SQLColumn
from repro.sqldb.types import parse_type
from repro.storage.btree import _Internal
from repro.telemetry import get_registry
from tests.conftest import scan_rows


# ----------------------------------------------------------------------
# the frozen oracle: the row loop as it stood before the column loop
# ----------------------------------------------------------------------
def frozen_dict_rows(names, rows):
    """The prepared-INSERT template's transpose: one dict per row, NULLs dropped."""
    for params in rows:
        yield {name: value for name, value in zip(names, params) if value is not None}


def frozen_insert_rows(table, rows):
    by_name = table._by_name
    clustered = table._clustered
    count = 0
    for row in rows:
        for name in row:
            if name not in by_name:
                raise ProgrammingError(f"table {table.name!r} has no column {name!r}")
        for column in table.columns:
            value = row.get(column.name)
            if value is None:
                if column.not_null and column.name not in table.primary_key:
                    raise IntegrityError(f"column {column.name!r} is NOT NULL")
                continue
            column.sql_type.validate(value)
        key = table._pk_of(row)
        if key in clustered:
            raise IntegrityError(f"duplicate primary key {key!r} in table {table.name!r}")
        encoded = table.encode_row(row)
        table._redo_log += b"\x00" * table_module.REDO_HEADER_BYTES
        table._redo_log += encoded
        table._redo_log += b"\x00" * 20
        table._binlog += b"\x00" * 19
        table._binlog += encoded
        clustered.insert(key, encoded)
        for column_name, tree in table._secondary.items():
            value = row.get(column_name)
            if value is not None:  # indexed as stored: an int as a DOUBLE's float
                tree.insert((by_name[column_name].sql_type.canonical((value,))[0], key))
        table._n_rows += 1
        table._version += 1
        table._dirty_bytes += len(encoded) + ROW_HEADER_BYTES
        if table._dirty_bytes >= table_module.DIRTY_FLUSH_BYTES:
            clustered.flush()
            for tree in table._secondary.values():
                tree.flush()
            table._dirty_bytes = 0
        count += 1
    return count


def frozen_write(table, names, rows):
    return frozen_insert_rows(table, frozen_dict_rows(names, rows))


def column_write(table, names, rows):
    return table.insert_columns(names, [list(column) for column in zip(*rows)]
                                if rows else [[] for _ in names])


def row_at_a_time(table, names, rows):
    for params in rows:
        table.insert(dict(zip(names, params)))
    return len(rows)


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
SMALL = st.integers(-3, 12)
GOOD = {
    "INT": SMALL | st.integers(-(2 ** 31), 2 ** 31 - 1),
    "BIGINT": SMALL | st.integers(-(2 ** 63), 2 ** 63 - 1),
    "BOOLEAN": st.booleans() | st.integers(0, 2),
    "VARCHAR(4)": st.text("abé", max_size=4),
    "TEXT": st.text(max_size=6),
    "DOUBLE": st.floats(allow_nan=False, width=32) | SMALL,
}
BAD = {
    "INT": st.sampled_from((2 ** 31, -(2 ** 31) - 1, True, "1", 1.5)),
    "BIGINT": st.sampled_from((2 ** 63, -(2 ** 63) - 1, False, "7")),
    "BOOLEAN": st.sampled_from(("t", 1.0, b"\x01")),
    "VARCHAR(4)": st.sampled_from(("abcde", "é" * 5, 3, b"ab")),
    "TEXT": st.sampled_from((5, 2.5, b"x")),
    "DOUBLE": st.sampled_from(("1.0", True, 2 ** 1100)),
}
TYPES = tuple(GOOD)


@st.composite
def scenarios(draw):
    width = draw(st.integers(2, 5))
    types = [draw(st.sampled_from(TYPES)) for _ in range(width)]
    names = [f"c{i}" for i in range(width)]
    key_width = draw(st.integers(1, 2))
    primary_key = names[:key_width]
    not_null = [name not in primary_key and draw(st.booleans()) for name in names]
    indexed = draw(st.sampled_from([None, *names[key_width:]]))
    written = draw(st.permutations(names))
    written = written[:draw(st.integers(1, width))]
    bad_rate = draw(st.sampled_from((0, 0, 8, 30)))

    def value(kind, in_key):
        # Keys come from a small domain so that duplicates occur.
        good = SMALL if in_key and kind in ("INT", "BIGINT") else GOOD[kind]
        if in_key and kind == "DOUBLE":
            good = SMALL
        return st.integers(0, 99).flatmap(
            lambda roll: BAD[kind] if roll < bad_rate
            else st.none() if roll < bad_rate + 6 and not (in_key and not bad_rate)
            else good
        )

    row = st.tuples(*[value(types[names.index(n)], n in primary_key) for n in written])
    batches = draw(st.lists(st.lists(row, max_size=12), min_size=1, max_size=3))
    return {
        "columns": list(zip(names, types, not_null)),
        "primary_key": primary_key,
        "indexed": indexed,
        "written": written,
        "batches": batches,
        "flush_bytes": draw(st.integers(20, 400) | st.just(2 * 1024 * 1024)),
    }


def make_table(scenario):
    database = Database("d")
    table = database.create_table("t", [
        SQLColumn(name, parse_type(kind), not_null) for name, kind, not_null in scenario["columns"]
    ], scenario["primary_key"])
    if scenario["indexed"] is not None:
        table.create_index("t_idx", scenario["indexed"])
    return table


def tree_image(tree):
    def node_image(node):
        if isinstance(node, _Internal):
            return ("internal", repr(node.keys), [node_image(child) for child in node.children])
        return ("leaf", repr(node.keys), list(node.values), node.encoded, node.dirty)

    return node_image(tree._root), tree.page_counts, len(tree)


def snapshot(table):
    return {
        "redo": bytes(table._redo_log),
        "binlog": bytes(table._binlog),
        "clustered": tree_image(table._clustered),
        "secondary": {name: tree_image(tree) for name, tree in table._secondary.items()},
        "counters": (table._version, table._n_rows, table._dirty_bytes),
    }


def outcome(write, table, names, rows):
    try:
        return ("ok", write(table, names, rows))
    except (ProgrammingError, IntegrityError) as error:
        return (type(error).__name__, str(error))


def assert_same_as_oracle(scenario, write):
    oracle, table = make_table(scenario), make_table(scenario)
    names = scenario["written"]
    with mock.patch.object(table_module, "DIRTY_FLUSH_BYTES", scenario["flush_bytes"]):
        for rows in scenario["batches"]:
            expected = outcome(frozen_write, oracle, names, rows)
            assert outcome(write, table, names, rows) == expected, rows
            assert snapshot(table) == snapshot(oracle), rows
    assert table.size_bytes == oracle.size_bytes
    assert snapshot(table) == snapshot(oracle)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_column_loop_matches_the_row_loop(scenario):
    assert_same_as_oracle(scenario, column_write)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_single_row_inserts_match_the_row_loop(scenario):
    assert_same_as_oracle(scenario, row_at_a_time)


# ----------------------------------------------------------------------
# the failure contract, pinned case by case
# ----------------------------------------------------------------------
BASE = {
    "columns": [("id", "INT", False), ("tag", "VARCHAR(4)", True), ("level", "INT", False)],
    "primary_key": ["id"],
    "indexed": "level",
    "written": ["id", "tag", "level"],
    "flush_bytes": 40,
}


@pytest.mark.parametrize("bad_row, error", [
    ((3, "c", "x"), "expected INT, got 'x'"),
    ((3, "c", True), "expected INT, got True"),
    ((3, "c", 2 ** 31), "2147483648 out of range for INT"),
    ((3, "toolong", 1), "value of length 7 exceeds VARCHAR(4)"),
    ((3, None, 1), "column 'tag' is NOT NULL"),
    ((None, "c", 1), "primary key column 'id' cannot be NULL"),
    ((1, "c", 1), "duplicate primary key 1 in table 't'"),
    ((None, None, "x"), "column 'tag' is NOT NULL"),  # columns in table order, then the key
    ((1, "c", "x"), "expected INT, got 'x'"),  # a value before the duplicate check
])
def test_rows_before_the_failing_row_are_written(bad_row, error):
    scenario = dict(BASE, batches=[[(1, "a", 5), (2, "b", None), bad_row, (4, "d", 6)]])
    assert_same_as_oracle(scenario, column_write)
    table = make_table(scenario)
    with pytest.raises((ProgrammingError, IntegrityError), match=error.replace("(", r"\(")
                       .replace(")", r"\)")):
        column_write(table, BASE["written"], scenario["batches"][0])
    assert [row["id"] for row in scan_rows(table)] == [1, 2]


def test_a_duplicate_within_the_batch_and_against_the_tree():
    scenario = dict(BASE, batches=[[(1, "a", 5), (2, "b", 6)], [(3, "c", 7), (2, "x", 8)],
                                   [(4, "d", 9), (4, "e", 9)]])
    assert_same_as_oracle(scenario, column_write)


def test_the_dirty_page_flush_fires_at_the_same_rows():
    """Every threshold a short batch can reach exactly or step over."""
    rows = [(i, "abcd"[: i % 5], None if i % 3 else i) for i in range(12)]
    for flush_bytes in range(20, 200):
        assert_same_as_oracle(dict(BASE, flush_bytes=flush_bytes, batches=[rows]), column_write)


def test_unknown_column_raises_before_anything_is_written():
    table = make_table(dict(BASE))
    with pytest.raises(ProgrammingError, match="table 't' has no column 'bogus'"):
        table.insert_columns(["id", "tag", "bogus"], [[1], ["a"], [None]])
    assert len(table) == 0 and not table._redo_log


# ----------------------------------------------------------------------
# the SQL surface: template constants, work counters
# ----------------------------------------------------------------------
def session_with_table(extra=""):
    session = SQLEngine().connect()
    session.execute("CREATE DATABASE d")
    session.execute("USE d")
    session.execute(f"CREATE TABLE t (id INT PRIMARY KEY, m INT{extra})")
    return session, session.engine.database("d")


@pytest.mark.parametrize("kind", ["VARCHAR(8)", "TEXT"])
def test_a_lone_surrogate_stops_the_batch_at_its_row(kind):
    session = SQLEngine().connect()
    session.execute("CREATE DATABASE d")
    session.execute("USE d")
    session.execute(f"CREATE TABLE t (id INT PRIMARY KEY, s {kind})")
    session.execute("CREATE INDEX s_idx ON t (s)")
    prepared = session.prepare("INSERT INTO t (id, s) VALUES (?, ?)")
    with pytest.raises(ProgrammingError, match="not valid UTF-8"):
        session.execute_many(prepared, [(1, "a"), (2, "\ud800"), (3, "b")])
    with pytest.raises(ProgrammingError, match="not valid UTF-8"):
        session.execute("INSERT INTO t (id, s) VALUES (4, ?)", ("\udfff",))
    with pytest.raises(ProgrammingError, match="not valid UTF-8"):
        session.execute("UPDATE t SET s = ? WHERE id = 1", ("\ud800",))
    assert session.execute("SELECT id, s FROM t").rows == [{"id": 1, "s": "a"}]
    assert session.execute("SELECT id FROM t WHERE s = 'a'").rows == [{"id": 1}]


def test_a_nan_key_stops_the_batch_at_its_row():
    """NaN equals no key, itself included: the B-tree cannot refuse it
    as a duplicate, so it is refused as a value."""
    session = SQLEngine().connect()
    session.execute("CREATE DATABASE d")
    session.execute("USE d")
    session.execute("CREATE TABLE f (x DOUBLE PRIMARY KEY, y DOUBLE)")
    prepared = session.prepare("INSERT INTO f (x, y) VALUES (?, ?)")
    nan = float("nan")
    with pytest.raises(ProgrammingError, match="primary key column 'x' cannot be NaN"):
        session.execute_many(prepared, [(1.0, nan), (nan, 1.0), (nan, 2.0)])
    with pytest.raises(ProgrammingError, match="cannot be NaN"):
        session.execute("INSERT INTO f (x, y) VALUES (?, 3.0)", (nan,))
    rows = session.execute("SELECT x, y FROM f").rows
    assert len(rows) == 1 and rows[0]["x"] == 1.0 and rows[0]["y"] != rows[0]["y"]


def test_template_constants_are_constant_columns():
    session, database = session_with_table(", tag VARCHAR(8)")
    prepared = session.prepare("INSERT INTO t (id, tag, m) VALUES (?, 'k', NULL)")
    assert session.execute_many(prepared, [(1,), (2,)]) == 2
    assert session.execute("SELECT id, tag, m FROM t").rows == [
        {"id": 1, "tag": "k", "m": None}, {"id": 2, "tag": "k", "m": None},
    ]


WORK = ("sqldb_rows_written_total", "sqldb_redo_bytes_total",
        "sqldb_binlog_bytes_total", "sqldb_index_entries_total")


def _work(table_name):
    registry = get_registry()
    return [registry.value(name, table_name) for name in WORK]


@pytest.mark.parametrize("bulk", [True, False])
def test_work_counters_equal_the_log_growth(bulk):
    registry = get_registry()
    was = registry.enabled
    registry.enabled = True
    try:
        session, database = session_with_table(", tag VARCHAR(8)")
        session.execute("CREATE INDEX t_m ON t (m)")
        rows = [(i, f"g{i % 3}", None if i % 4 == 0 else i % 5) for i in range(40)]
        text = "INSERT INTO t (id, tag, m) VALUES (?, ?, ?)"
        before = _work("t")
        redo, binlog = len(database._redo_log), len(database._binlog)
        if bulk:
            session.execute_many(session.prepare(text), rows)
        else:
            for row in rows:
                session.execute(text, row)
        delta = [after - start for after, start in zip(_work("t"), before)]
        assert delta == [40, len(database._redo_log) - redo, len(database._binlog) - binlog,
                         sum(m is not None for _, _, m in rows)]
    finally:
        registry.enabled = was
