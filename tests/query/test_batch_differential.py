"""Differential: the column-batch execution path against the row path
it replaced, frozen here as an oracle.

Before operators exchanged batches, a scan decoded every live row into
a dict (``decode_row``), filters called ``compare`` per row and the
projection/aggregation ran over row lists.  :func:`oracle_scan` and
:func:`oracle_answer` keep exactly that — layer walk, LSM shadowing and
pruning accounting included — in plain Python.  Hypothesis drives random
insert / update-to-NULL / delete / flush / compact sequences against
both engines, both block formats and 1 and 4 shards, and every
statement must return identical rows *in identical order*, the same
``COUNT(*)`` and the same ``rows emitted + rows pruned`` at the leaf.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dwarf_check import structural_signature
from repro.core.schema import CubeSchema
from repro.dwarf.builder import DwarfBuilder
from repro.dwarf.query import Each, Member
from repro.dwarf.query import select as memory_select
from repro.mapping.incremental import CubeMaintainer
from repro.mapping.nosql_dwarf import NoSQLDwarfMapper
from repro.mapping.stored_query import stored_select
from repro.nosqldb.columnfamily import ColumnFamily
from repro.nosqldb.engine import NoSQLEngine
from repro.query.expr import compare, evaluate_aggregate, null_safe_key
from repro.query.pushdown import PUSHABLE_OPS
from repro.sqldb.engine import SQLEngine

from tests.query.test_sharded_equivalence import env

GROUPS = ("g0", "g1", "g2")


# ----------------------------------------------------------------------
# the oracle: the deleted row-at-a-time path
# ----------------------------------------------------------------------
def _passes(row, conditions):
    return all(compare(op, row.get(column), expected) for column, op, expected in conditions)


def oracle_scan(table, pushed):
    """Every live row satisfying ``pushed``, in scan order, plus the
    number of row versions the storage layer pruned — the old
    ``scan_shard`` / ``scan_filtered`` / ``Table.scan`` generators."""
    rows, pruned = [], 0
    if not isinstance(table, ColumnFamily):
        for shard_id in range(table.shard_count):
            for pk, encoded in table._clustered.items():
                if table.shard_count > 1 and table._ring.shard_for(pk) != shard_id:
                    continue
                row = table.decode_row(encoded)
                if _passes(row, pushed):
                    rows.append(row)
                else:
                    pruned += 1
        return rows, pruned
    for shard in table.shards:
        seen, deleted = set(), set()
        for memtable in (shard.memtable, *reversed(shard.pending)):
            for key, encoded in memtable:
                if key in seen or key in deleted:
                    continue
                seen.add(key)
                row = table.decode_row(encoded)
                if _passes(row, pushed):
                    rows.append(row)
                else:
                    pruned += 1
            deleted |= memtable.tombstones
        for sstable in reversed(shard.sstables):
            for key, encoded in sstable.items():
                row = table.decode_row(encoded)
                matched = _passes(row, pushed)
                pruned += not matched  # counted before the shadow check
                if key in seen or key in deleted:
                    continue
                seen.add(key)
                if matched:
                    rows.append(row)
            deleted |= sstable.tombstones
    return rows, pruned


def oracle_answer(table, spec, dialect):
    """``(result rows, rows examined at the leaf)`` for one statement."""
    where = [c for c in spec["where"] if dialect == "sql" or c[1] in PUSHABLE_OPS]
    pushed = [c for c in where if c[1] in PUSHABLE_OPS]
    rows, pruned = oracle_scan(table, pushed)
    examined = len(rows) + pruned
    rows = [row for row in rows if _passes(row, where)]
    if spec["shape"] == "count":
        if dialect == "cql" and spec["limit"] is not None:
            rows = rows[:spec["limit"]]  # CQL counts what the statement returns
        return [{"count": len(rows)}], examined
    if spec["shape"] == "group":  # SQL only
        groups = {}
        for row in rows:
            groups.setdefault(row["grp"], []).append(row)
        out = []
        for grp, members in groups.items():
            vals = [m["val"] for m in members if m["val"] is not None]
            out.append({
                "grp": grp, "count": len(members),
                "sum(val)": evaluate_aggregate("sum", vals),
                "avg(val)": evaluate_aggregate("avg", vals),
                "min(val)": evaluate_aggregate("min", vals),
            })
        return out, examined
    if spec["order"] is not None:
        rows = sorted(rows, key=lambda r: null_safe_key(r[spec["order"][0]]),
                      reverse=spec["order"][1])
    if spec["limit"] is not None:
        rows = rows[:spec["limit"]]
    if spec["columns"]:
        rows = [{name: row[name] for name in spec["columns"]} for row in rows]
    return rows, examined


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
def _literal(value):
    if isinstance(value, list):
        return "(" + ", ".join(_literal(v) for v in value) + ")"
    return f"'{value}'" if isinstance(value, str) else str(value)


def render(spec, dialect):
    where = [c for c in spec["where"] if dialect == "sql" or c[1] in PUSHABLE_OPS]
    parts = []
    for column, op, expected in where:
        if op == "ISNULL":
            parts.append(f"{column} IS NULL")
        elif op == "NOTNULL":
            parts.append(f"{column} IS NOT NULL")
        else:
            parts.append(f"{column} {op} {_literal(expected)}")
    if spec["shape"] == "count":
        select = "COUNT(*)"
    elif spec["shape"] == "group":
        select = "grp, COUNT(*), SUM(val), AVG(val), MIN(val)"
    else:
        select = ", ".join(spec["columns"]) or "*"
    text = f"SELECT {select} FROM t"
    if parts:
        text += " WHERE " + " AND ".join(parts)
    if spec["shape"] == "group":
        text += " GROUP BY grp"
    if spec["order"] is not None and spec["shape"] == "rows":
        text += f" ORDER BY {spec['order'][0]} {'DESC' if spec['order'][1] else 'ASC'}"
    if spec["limit"] is not None and spec["shape"] != "group":
        text += f" LIMIT {spec['limit']}"
    if dialect == "cql" and parts:
        text += " ALLOW FILTERING"
    return text


condition_strategy = st.one_of(
    st.tuples(st.just("grp"), st.just("="), st.sampled_from(GROUPS)),
    st.tuples(st.just("val"), st.sampled_from(("<", ">", "<=", ">=", "=")),
              st.integers(min_value=-1, max_value=6)),
    st.tuples(st.just("val"), st.just("IN"),
              st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3)),
    st.tuples(st.just("val"), st.sampled_from(("ISNULL", "NOTNULL")), st.none()),
)

spec_strategy = st.fixed_dictionaries({
    "where": st.lists(condition_strategy, max_size=3),
    "shape": st.sampled_from(("rows", "rows", "count", "group")),
    "columns": st.sampled_from(((), ("id", "val"), ("grp",))),
    "order": st.one_of(st.none(), st.tuples(st.sampled_from(("id", "val")), st.booleans())),
    "limit": st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
})

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 14), st.sampled_from(GROUPS),
                  st.one_of(st.none(), st.integers(0, 5))),
        st.tuples(st.just("null"), st.integers(0, 14)),
        st.tuples(st.just("delete"), st.integers(0, 14)),
        st.tuples(st.just("flush")),
        st.tuples(st.just("compact")),
    ),
    max_size=30,
)


def build(ops, dialect, block_format, shards):
    """Apply ``ops`` through the storage API; returns (session, table)."""
    with env(REPRO_BLOCK_FORMAT=block_format, REPRO_SHARDS=shards):
        if dialect == "sql":
            session = SQLEngine().connect()
            session.execute("CREATE DATABASE d")
            session.execute("USE d")
            session.execute("CREATE TABLE t (id INT PRIMARY KEY, grp VARCHAR(8), val INT)")
            table = session.engine.database("d").table("t")
        else:
            session = NoSQLEngine().connect()
            session.execute("CREATE KEYSPACE k")
            session.execute("USE k")
            session.execute("CREATE TABLE t (id int PRIMARY KEY, grp text, val int)")
            table = session.engine.keyspace("k").table("t")
    live = set()
    for op in ops:
        kind = op[0]
        if kind == "insert":
            _, key, grp, val = op
            row = {"id": key, "grp": grp, "val": val}
            if dialect == "sql" and key in live:
                table.update_where(lambda r, k=key: r["id"] == k, {"grp": grp, "val": val})
            else:
                table.insert({k: v for k, v in row.items() if v is not None})
            live.add(key)
        elif kind == "null" and op[1] in live:
            if dialect == "sql":
                table.update_where(lambda r, k=op[1]: r["id"] == k, {"val": None})
            else:
                table.update(op[1], {"val": None})
        elif kind == "delete" and op[1] in live:
            live.discard(op[1])
            if dialect == "sql":
                table.delete_where(lambda r, k=op[1]: r["id"] == k)
            else:
                table.delete(op[1])
        elif kind in ("flush", "compact") and dialect == "cql":
            getattr(table, kind)()
    return session, table


@given(
    ops=ops_strategy,
    specs=st.lists(spec_strategy, min_size=1, max_size=4),
    dialect=st.sampled_from(("sql", "cql")),
    block_format=st.sampled_from(("row", "columnar")),
    shards=st.sampled_from((1, 4)),
)
@settings(max_examples=120, deadline=None)
def test_batch_path_answers_like_the_row_path(ops, specs, dialect, block_format, shards):
    session, table = build(ops, dialect, block_format, shards)
    for spec in specs:
        if spec["shape"] == "group" and dialect == "cql":
            continue
        text = render(spec, dialect)
        expected, examined = oracle_answer(table, spec, dialect)
        assert session.execute(text).rows == expected, text
        assert session.execute(text).rows == expected, text  # warm plan
        # Where no Limit can stop the scan early (a Sort below it drains
        # the leaf first; SQL COUNT and GROUP BY ignore or follow it), the
        # leaf examined exactly the oracle's rows.
        drains = (spec["limit"] is None or spec["shape"] == "group"
                  or (spec["shape"], dialect) == ("count", "sql")
                  or (spec["shape"] == "rows" and spec["order"] is not None
                      and spec["limit"] > 0))
        if drains:
            leaf = session.execute("EXPLAIN ANALYZE " + text).rows[shards if shards > 1 else 0]
            assert leaf["node"] == "FullScan"
            assert leaf["rows"] + leaf["rows_pruned"] == examined, text


# ----------------------------------------------------------------------
# a maintained cube with live delta epochs
# ----------------------------------------------------------------------
BATCHES = [
    [("a", 1, "x", 5), ("a", 2, "y", 3), ("b", 1, "x", 2)],
    [("a", 1, "x", 4), ("b", 3, "z", 7)],
    [("c", 2, "y", 1), ("a", 2, "y", 6)],
]


@pytest.mark.parametrize("shards", (1, 4))
@pytest.mark.parametrize("block_format", ("row", "columnar"))
def test_maintained_cube_reads_through_live_deltas(block_format, shards):
    schema = CubeSchema("inc", ["d1", "d2", "d3"])
    with env(REPRO_BLOCK_FORMAT=block_format, REPRO_SHARDS=shards):
        mapper = NoSQLDwarfMapper()
        mapper.install()
        maintainer = CubeMaintainer.open(mapper, DwarfBuilder(schema).build(BATCHES[0]))
        for table in mapper.engine.keyspace(mapper.keyspace_name).tables:
            table.flush()  # base on disk, deltas below stay in memtables
        maintainer.append(BATCHES[1])
        maintainer.append(BATCHES[2])
        view = maintainer.view()
        assert len(view.cube_ids) == 3  # base + two live deltas
        merged = DwarfBuilder(schema).build([row for batch in BATCHES for row in batch])
        for constraints in ({"d1": Each()}, {"d1": Each(), "d2": Member(2)},
                            {"d2": Each(), "d3": Each()}):
            expected = list(memory_select(merged, **constraints))
            for strategy in ("scan", "walk"):
                got = list(stored_select(mapper, maintainer.logical_id,
                                         strategy=strategy, **constraints))
                assert got == expected, (strategy, constraints)
        # mapper.load rides the same scan: each physical cube reloads exactly
        for physical_id, rows in zip(view.cube_ids, BATCHES):
            assert structural_signature(mapper.load(physical_id)) == (
                structural_signature(DwarfBuilder(schema).build(rows))
            )
