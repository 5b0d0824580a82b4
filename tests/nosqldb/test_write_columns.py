"""The column write loop against the row loop it replaced.

``ColumnFamily.insert_columns`` takes a bulk write column-wise: each
column is validated and encoded over a chunk of rows with its type
resolved once, and a chunk whose keys strictly ascend above every key
any layer holds skips the per-row liveness probe.  The row loop it
replaced — the prepared-INSERT binding plus ``insert_bound_many`` and
the one-record commit-log append, as they stood — is frozen below as the
oracle, and both are driven through the same scenarios: commit-log
bytes, write clock, memtable seal points, row cache, live-row count,
index entries and the flushed SSTable files must come out identical,
and so must every exception.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.sstable_check import decode_row
from repro.nosqldb import columnfamily, commitlog
from repro.nosqldb.cache import NEGATIVE
from repro.nosqldb.columnfamily import Column
from repro.nosqldb.engine import NoSQLEngine
from repro.nosqldb.errors import InvalidRequest
from repro.nosqldb.keyspace import Keyspace
from repro.nosqldb.memtable import Memtable
from repro.nosqldb.types import parse_type
from repro.storage.btree import encode_key
from repro.storage.encoding import encode_bytes, encode_text
from repro.storage.varint import encode_varint
from repro.telemetry import get_registry

from tests.conftest import scan_rows
from tests.env import env


# ----------------------------------------------------------------------
# the frozen oracle: the row loop as it stood before the column loop
# ----------------------------------------------------------------------
def stored_row(cf, key):
    """``key``'s stored row bytes from the layers, past the row cache."""
    hit = cf._locate((key,))[key]
    return hit[0].materialize(hit[1]) if type(hit) is tuple else hit


def frozen_append(log, table_name, key, encoded_row):
    before = len(log._buffer)
    log._buffer += b"\x00" * commitlog.RECORD_HEADER_BYTES
    log._buffer += encode_text(table_name)
    log._buffer += encode_key(key)
    log._buffer += encode_bytes(encoded_row)
    log._n_records += 1
    commitlog._M_APPENDS.inc()
    commitlog._M_APPEND_BYTES.inc(len(log._buffer) - before)


def frozen_insert_bound_many(cf, items):
    commit_log = cf._commit_log
    indexes = cf._indexes
    row_cache = cf._row_cache
    count = 0
    for key, bound in items:
        cf._write_clock += 1
        ts_bytes = cf._write_clock.to_bytes(8, "little")
        parts = [encode_varint(len(bound))]
        for column, value in bound:
            parts.append(column._encoded_name)
            parts.append(ts_bytes)
            parts.append(column.cql_type.validate_encode(value))
        encoded = b"".join(parts)
        if commit_log is not None:
            frozen_append(commit_log, cf.name, key, encoded)
        if indexes:
            previous = stored_row(cf, key)
            if previous is not None:
                old_row = decode_row(cf, previous)
                for column_name, index in indexes.items():
                    index.remove(old_row.get(column_name), key)
            new_values = {column.name: value for column, value in bound}
            for column_name, index in indexes.items():
                index.add(new_values.get(column_name), key)
            was_live = previous is not None
        elif cf._n_live is not None:
            was_live = stored_row(cf, key) is not None
        else:
            was_live = True
        memtable = cf._memtable
        memtable.put(key, encoded)
        row_cache.invalidate(key)
        if cf._n_live is not None and not was_live:
            cf._n_live += 1
        cf._n_writes += 1
        if memtable.approximate_bytes >= columnfamily.FLUSH_THRESHOLD:
            cf.seal_memtable()
        count += 1
    if count:
        cf._m_writes.inc(count)
    return count


def frozen_write(cf, columns, rows):
    """The prepared-INSERT template's row binding, then the row loop."""
    key_at = [column.name for column in columns].index(cf.primary_key)

    def bound_rows():
        for params in rows:
            key = params[key_at]
            if key is None:
                raise InvalidRequest(f"INSERT into {cf.name!r} misses primary key")
            yield key, [(c, v) for c, v in zip(columns, params) if v is not None]

    return frozen_insert_bound_many(cf, bound_rows())


def column_write(cf, columns, rows):
    return cf.insert_columns(columns, [list(column) for column in zip(*rows)] or
                             [[] for _ in columns])


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
SCHEMA = (("id", None), ("tag", "text"), ("level", "int"), ("members", "set<int>"))
TAGS = ("a", "b", "c")


def make_table(root: Path, pk_type: str, indexed: bool, row_cache: bool):
    with env(REPRO_ROW_CACHE_BYTES=4096 if row_cache else 0):
        keyspace = Keyspace("ks", data_dir=root)
        cf = keyspace.create_table(
            "t", [Column(name, parse_type(kind or pk_type)) for name, kind in SCHEMA], "id",
        )
    if indexed:
        cf.create_index("t_tag", "tag")
    return keyspace, cf


def snapshot(keyspace, cf):
    log = keyspace._commit_log
    cache = [(k, "NEGATIVE" if v is NEGATIVE else v) for k, v in cf._row_cache.items()]
    return {
        "log": (bytes(log._buffer), len(log)),
        "clock": cf._write_clock,
        "memtable": (list(cf._memtable), sorted(cf._memtable.tombstones, key=repr)),
        "sealed": [list(memtable) for memtable in cf._pending],
        "sstables": len(cf._sstables),
        "live": (cf._n_live, cf._n_writes),
        "row_cache": cache,
        "index": {tag: sorted(ix.lookup(tag), key=repr) for ix in cf.indexes for tag in TAGS},
    }


def settle(keyspace, cf):
    """Flush, then everything a reader sees: files, count, rows."""
    cf.flush()
    return {
        "files": [Path(sstable._path).read_bytes() for sstable in cf._sstables],
        "len": len(cf),
        "rows": sorted(map(repr, scan_rows(cf))),
        **snapshot(keyspace, cf),
    }


def run(step, keyspace, cf, write, columns):
    """One scenario step; returns its outcome (an exception's class and
    message, or what it returned)."""
    kind, payload = step
    try:
        if kind == "insert":
            order = [columns[name] for name in payload[0]]
            rows = [tuple(row[name] for name in payload[0]) for row in payload[1]]
            return write(cf, order, rows)
        if kind == "delete":
            for key in payload:
                cf.delete(key)
        elif kind == "read":
            return cf.get(payload)
        elif kind == "flush":
            cf.flush()
        elif kind == "crash":
            keyspace.simulate_crash()
        elif kind == "replay":
            return keyspace.replay_commit_log()
    except Exception as error:  # compared, class and message, across both loops
        return type(error).__name__, str(error)
    return None


def _keys(pk_type):
    ints = st.integers(min_value=0, max_value=30)
    if pk_type == "int":
        return ints
    return st.one_of(ints, st.sampled_from([0.5, 1.5, 7.25, 29.5]))


@st.composite
def _row(draw, keys):
    return {
        "id": draw(st.one_of(keys, keys, keys, keys, st.none())),
        "tag": draw(st.one_of(st.none(), st.sampled_from(TAGS))),
        "level": draw(st.one_of(st.none(), st.integers(-3, 300), st.integers(-3, 300),
                                st.just("bad"))),
        "members": draw(st.one_of(st.none(), st.sets(st.integers(0, 9000), max_size=4))),
    }


@st.composite
def scenarios(draw):
    pk_type = draw(st.sampled_from(["int", "double"]))
    keys = _keys(pk_type)
    steps = []
    base = 100
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(
            ["insert", "ascending", "fresh", "fresh", "delete", "read", "flush", "crash",
             "replay"]
        ))
        order = draw(st.permutations([name for name, _ in SCHEMA]))
        if kind == "insert":
            rows = draw(st.lists(_row(keys), max_size=10))
            steps.append(("insert", (order, rows)))
        elif kind == "ascending":
            # Strictly ascending keys, likely among those already written.
            ids = sorted(draw(st.sets(st.integers(0, 30), min_size=1, max_size=8)))
            rows = [dict(draw(_row(keys)), id=key) for key in ids]
            steps.append(("insert", (order, rows)))
        elif kind == "fresh":
            # Strictly ascending keys, above what earlier steps wrote.
            gaps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=10))
            rows = []
            for gap in gaps:
                base += gap
                row = draw(_row(keys))
                row["id"] = base if pk_type == "int" else base + 0.5 * draw(st.booleans())
                rows.append(row)
            steps.append(("insert", (order, rows)))
        elif kind == "delete":
            steps.append(("delete", draw(st.lists(keys, max_size=3))))
        elif kind == "read":
            steps.append(("read", draw(keys)))
        else:
            steps.append((kind, None))
    config = {
        "pk_type": pk_type,
        "indexed": draw(st.booleans()),
        "row_cache": draw(st.booleans()),
        "flush_threshold": draw(st.sampled_from([columnfamily.FLUSH_THRESHOLD, 160])),
        "chunk": draw(st.sampled_from([columnfamily.ENCODE_CHUNK, 3])),
    }
    return config, steps


@given(case=scenarios())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_column_loop_matches_the_frozen_row_loop(case):
    config, steps = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(columnfamily, "FLUSH_THRESHOLD", config["flush_threshold"]), \
            mock.patch.object(columnfamily, "ENCODE_CHUNK", config["chunk"]):
        sides = []
        for name, write in (("oracle", frozen_write), ("columns", column_write)):
            keyspace, cf = make_table(
                Path(tmp) / name, config["pk_type"], config["indexed"], config["row_cache"]
            )
            columns = {column.name: column for column in cf.columns}
            outcomes = []
            for step in steps:
                outcomes.append(run(step, keyspace, cf, write, columns))
                outcomes.append(snapshot(keyspace, cf))
            outcomes.append(settle(keyspace, cf))
            sides.append(outcomes)
        oracle, columns = sides
        assert columns == oracle


# ----------------------------------------------------------------------
# pinned behaviour
# ----------------------------------------------------------------------
def _pair(tmp_path, indexed=False):
    return [make_table(tmp_path / name, "int", indexed, True) for name in ("oracle", "columns")]


def _rows(*keys, bad_at=None):
    return [
        (key, "a", "bad" if i == bad_at else i, {i}) for i, key in enumerate(keys)
    ]


@pytest.mark.parametrize("indexed", [False, True])
@pytest.mark.parametrize("failure", ["type", "key"])
def test_a_bad_row_keeps_the_rows_before_it(tmp_path, indexed, failure):
    rows = _rows(1, 2, 3, 4, bad_at=2 if failure == "type" else None)
    if failure == "key":
        rows[2] = (None,) + rows[2][1:]
    outcomes = []
    for (keyspace, cf), write in zip(_pair(tmp_path, indexed), (frozen_write, column_write)):
        order = [cf.column(name) for name, _ in SCHEMA]
        with pytest.raises(InvalidRequest) as raised:
            write(cf, order, rows)
        outcomes.append((str(raised.value), snapshot(keyspace, cf), cf.get(2), cf.get(3)))
    assert outcomes[1] == outcomes[0]
    message, state, second, third = outcomes[1]
    assert message == ("expected int, got 'bad'" if failure == "type"
                       else "INSERT into 't' misses primary key")
    assert second is not None and third is None  # rows 0-1 in, 2-3 not
    assert state["clock"] == 1_400_000_000_000_000 + (3 if failure == "type" else 2)


@pytest.mark.parametrize("indexed", [False, True])
def test_a_row_failing_past_its_log_record_is_logged_like_before(tmp_path, indexed):
    """A row that fails after the row loop logged it (a storage fault in
    the memtable put) leaves the same commit log, clock and memtable."""
    real_put = Memtable.put

    def put(memtable, key, row):
        if key == 3:
            raise OSError("memtable fault")
        real_put(memtable, key, row)

    outcomes = []
    for (keyspace, cf), write in zip(_pair(tmp_path, indexed), (frozen_write, column_write)):
        with mock.patch.object(Memtable, "put", put), pytest.raises(OSError):
            write(cf, [cf.column(name) for name, _ in SCHEMA], _rows(1, 2, 3, 4))
        outcomes.append(snapshot(keyspace, cf))
    assert outcomes[1] == outcomes[0]
    assert len(keyspace._commit_log) == 3 and outcomes[1]["live"] == (2, 2)


def test_commit_log_counters_total_alike(tmp_path):
    registry = get_registry()
    was = registry.enabled
    registry.enabled = True
    try:
        totals = []
        for (keyspace, cf), write in zip(_pair(tmp_path), (frozen_write, column_write)):
            before = commitlog._M_APPENDS.value, commitlog._M_APPEND_BYTES.value
            write(cf, [cf.column(name) for name, _ in SCHEMA], _rows(*range(1, 40)))
            after = commitlog._M_APPENDS.value, commitlog._M_APPEND_BYTES.value
            totals.append((after[0] - before[0], after[1] - before[1]))
        assert totals[1] == totals[0] == (39, len(keyspace._commit_log._buffer))
    finally:
        registry.enabled = was


def test_a_fresh_ascending_batch_skips_the_liveness_probe(tmp_path):
    keyspace, cf = make_table(tmp_path, "int", False, True)
    columns = [cf.column(name) for name, _ in SCHEMA]
    probed = []
    real = cf._locate
    cf._locate = lambda keys: probed.extend(keys) or real(keys)
    column_write(cf, columns, _rows(5, 6, 9))
    cf.flush()
    column_write(cf, columns, _rows(10, 11))       # above the SSTable too
    assert probed == [] and len(cf) == 5
    column_write(cf, columns, _rows(12, 12, 13))   # repeats a key: probed
    assert probed == [12, 12, 13] and len(cf) == 7
    column_write(cf, columns, _rows(3, 20))        # starts below a layer
    assert probed[3:] == [3, 20] and len(cf) == 9
    cf.delete(30)
    del probed[:]
    column_write(cf, columns, _rows(30))           # a tombstone counts
    assert probed == [30] and len(cf) == 10
    cf.seal_memtable()                             # a sealed memtable counts
    column_write(cf, columns, _rows(25))
    assert probed == [30, 25] and len(cf._pending) == 1 and cf._memtable.key_range() == (25, 25)


def test_keys_that_do_not_compare_prove_nothing(tmp_path):
    _, cf = make_table(tmp_path, "int", False, True)
    assert cf._fresh([1, 2, 3])
    assert not cf._fresh([1, "a"])
    cf._memtable.put(5, b"\x00")
    assert not cf._fresh([2, 3]) and not cf._fresh(["x"])


class TestMemtableKeyRange:
    def test_kept_as_keys_arrive(self):
        memtable = Memtable()
        assert memtable.key_range() is None
        for key in (5, 3, 9, 4):
            memtable.put(key, b"r")
        memtable.delete(12)
        memtable.delete(1)
        memtable.put(12, b"again")
        assert memtable.key_range() == (1, 12)
        keys = [*dict(memtable), *memtable.tombstones]
        assert memtable.key_range() == (min(keys), max(keys))

    def test_incomparable_keys_fail_as_before(self):
        memtable = Memtable()
        memtable.put(1, b"r")
        memtable.put("a", b"r")
        assert len(memtable) == 2
        with pytest.raises(TypeError):
            memtable.key_range()


# ----------------------------------------------------------------------
# the row cache is still invalidated per key
# ----------------------------------------------------------------------
@pytest.mark.parametrize("checked", [False, True])
def test_a_fresh_batch_clears_a_cached_negative_read(tmp_path, checked):
    """Reading an absent key caches a NEGATIVE entry; the fresh bulk
    insert that writes the key must clear it, or the next read answers
    "no row" for a row that exists."""
    with env(REPRO_ROW_CACHE_BYTES=1 << 20, REPRO_CHECK=int(checked)):
        session = NoSQLEngine(data_dir=tmp_path).connect()
        session.execute("CREATE KEYSPACE ks")
        session.execute("USE ks")
        session.execute("CREATE TABLE t (id int PRIMARY KEY, tag text)")
        insert = session.prepare("INSERT INTO t (id, tag) VALUES (?, ?)")
        session.execute_many(insert, [(1, "a"), (2, "b")])
        table = session.engine.keyspace("ks").table("t")
        assert session.execute("SELECT * FROM t WHERE id = 3").one() is None
        assert dict(table._row_cache.items())[3] is NEGATIVE
        assert table._fresh([3, 4])
        session.execute_many(insert, [(3, "c"), (4, "d")])
        assert session.execute("SELECT * FROM t WHERE id = 3").one() == {"id": 3, "tag": "c"}
        assert len(table) == 4


# ----------------------------------------------------------------------
# values the table cannot store as keys or as text
# ----------------------------------------------------------------------
def _session():
    session = NoSQLEngine().connect()
    session.execute("CREATE KEYSPACE ks")
    session.execute("USE ks")
    return session


def test_a_nan_key_stops_the_batch_at_its_row():
    """NaN equals no key, itself included: the memtable would hold one
    row per NaN, so the key is refused."""
    session = _session()
    session.execute("CREATE TABLE f (x double PRIMARY KEY, v int)")
    insert = session.prepare("INSERT INTO f (x, v) VALUES (?, ?)")
    nan = float("nan")
    with pytest.raises(InvalidRequest, match="primary key column 'x' cannot be NaN"):
        session.execute_many(insert, [(1.0, 1), (nan, 2), (nan, 3)])
    with pytest.raises(InvalidRequest, match="cannot be NaN"):
        session.execute("INSERT INTO f (x, v) VALUES (?, 4)", (nan,))
    assert session.execute("SELECT * FROM f").rows == [{"x": 1.0, "v": 1}]


@pytest.mark.parametrize("column, value", [("s", "\ud800"), ("tags", {"ok", "\udc00"})])
def test_a_lone_surrogate_stops_the_batch_at_its_row(column, value):
    session = _session()
    session.execute("CREATE TABLE t (id int PRIMARY KEY, s text, tags set<text>)")
    insert = session.prepare(f"INSERT INTO t (id, {column}) VALUES (?, ?)")
    good = "a" if column == "s" else {"a"}
    with pytest.raises(InvalidRequest, match="not valid UTF-8"):
        session.execute_many(insert, [(1, good), (2, value), (3, good)])
    with pytest.raises(InvalidRequest, match="not valid UTF-8"):
        session.execute(f"INSERT INTO t (id, {column}) VALUES (4, ?)", (value,))
    assert [row["id"] for row in session.execute("SELECT * FROM t").rows] == [1]


def test_an_int_too_large_for_a_double_stops_the_batch_at_its_row():
    """A refused double is a value its column refuses, like an
    ill-typed one: the rows before it are written and its own clock
    tick is taken, as the row loop took it."""
    session = _session()
    session.execute("CREATE TABLE d (id int PRIMARY KEY, x double)")
    table = session.engine.keyspace("ks").table("d")
    insert = session.prepare("INSERT INTO d (id, x) VALUES (?, ?)")
    clock = table._write_clock
    with pytest.raises(InvalidRequest, match="out of range for double"):
        session.execute_many(insert, [(1, 0.5), (2, 2 ** 1100), (3, 1.5)])
    assert table._write_clock == clock + 2
    with pytest.raises(InvalidRequest, match="out of range for double"):
        session.execute("INSERT INTO d (id, x) VALUES (4, ?)", (2 ** 1100,))
    with pytest.raises(InvalidRequest, match="out of range for double"):
        session.execute("UPDATE d SET x = ? WHERE id = 1", (2 ** 1100,))
    assert session.execute("SELECT * FROM d").rows == [{"id": 1, "x": 0.5}]
