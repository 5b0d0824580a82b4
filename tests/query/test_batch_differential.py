"""Differential: the column-batch execution path against the row path
it replaced, frozen here as an oracle.

Before operators exchanged batches, a scan decoded every live row into
a dict (``decode_row``), filters called ``compare`` per row and the
projection/aggregation ran over row lists.  :func:`oracle_scan` and
:func:`oracle_answer` keep exactly that — layer walk, LSM shadowing and
pruning accounting included — in plain Python.  Hypothesis drives random
insert / update-to-NULL / delete / flush / compact sequences against
both engines, and every statement must return identical rows *in identical order*, the same
``COUNT(*)`` and the same ``rows emitted + rows pruned`` at the leaf.

Fetches get the same treatment: before ``get_batches``, a point,
multi-get or index leaf walked the layers for each key's *encoded row*
and decoded it (``SSTable.get`` -> ``decode_row``); :func:`oracle_get`
keeps that walk.  ``WHERE pk = ?``, ``WHERE pk IN (...)`` (unsorted,
duplicated, absent, tombstoned and shadowed keys) and secondary-index
probes with pushed residuals run over rows spread across the active
memtable, sealed memtables and several SSTables, with the row cache on
and off.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import heap_check, sstable_check
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
from repro.query.pushdown import PUSHABLE_OPS, BoundPredicate
from repro.sqldb.engine import SQLEngine

from tests.env import env

GROUPS = ("g0", "g1", "g2")


# ----------------------------------------------------------------------
# the oracle: the deleted row-at-a-time path
# ----------------------------------------------------------------------
def reference_decode(table, encoded):
    """One stored row decoded whole by the engine's reference codec."""
    checker = sstable_check if isinstance(table, ColumnFamily) else heap_check
    return checker.decode_row(table, encoded)


def _passes(row, conditions):
    return all(compare(op, row.get(column), expected) for column, op, expected in conditions)


def oracle_scan(table, pushed):
    """Every live row satisfying ``pushed``, in scan order, plus the
    number of row versions the storage layer pruned — the old
    ``scan_filtered`` / ``Table.scan`` generators."""
    rows, pruned = [], 0
    if not isinstance(table, ColumnFamily):
        for _, encoded in table._clustered.items():
            row = reference_decode(table, encoded)
            if _passes(row, pushed):
                rows.append(row)
            else:
                pruned += 1
        return rows, pruned
    seen, deleted = set(), set()
    for memtable in (table._memtable, *reversed(table._pending)):
        for key, encoded in memtable:
            if key in seen or key in deleted:
                continue
            seen.add(key)
            row = reference_decode(table, encoded)
            if _passes(row, pushed):
                rows.append(row)
            else:
                pruned += 1
        deleted |= memtable.tombstones
    for sstable in reversed(table._sstables):
        for key, encoded in sstable.items():
            row = reference_decode(table, encoded)
            matched = _passes(row, pushed)
            pruned += not matched  # counted before the shadow check
            if key in seen or key in deleted:
                continue
            seen.add(key)
            if matched:
                rows.append(row)
        deleted |= sstable.tombstones
    return rows, pruned


def oracle_get(table, key):
    """The live row of ``key`` or None — the old ``get``: memtable,
    sealed memtables, then SSTables newest first, the first layer that
    knows the key (as a row or a tombstone) answering."""
    if not isinstance(table, ColumnFamily):
        encoded = table._clustered.get(key)
        return reference_decode(table, encoded) if encoded is not None else None
    for memtable in (table._memtable, *reversed(table._pending)):
        encoded = memtable.get(key)
        if encoded is not None:
            return reference_decode(table, encoded)
        if memtable.is_deleted(key):
            return None
    for sstable in reversed(table._sstables):
        if sstable.is_deleted(key):
            return None
        for entry_key, encoded in sstable.items():
            if entry_key == key:
                return reference_decode(table, encoded)
    return None


def oracle_fetch(table, access):
    """The rows a fetching leaf hands up, in its order: one per
    requested key (repeats repeated, absent keys skipped); an index
    probe requests the keys holding the value, ascending."""
    kind, wanted = access
    if kind == "index":
        keys = sorted(row["id"] for row in oracle_scan(table, [])[0] if row["grp"] == wanted)
    else:
        keys = wanted if kind == "in" else [wanted]
    return [row for row in map(lambda key: oracle_get(table, key), keys) if row is not None]


def oracle_answer(table, spec, dialect):
    """``(result rows, rows examined at the leaf)`` for one statement."""
    where = [c for c in spec["where"] if dialect == "sql" or c[1] in PUSHABLE_OPS]
    if "access" in spec:
        rows = oracle_fetch(table, spec["access"])
        examined = len(rows)
    else:
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


_ACCESS_CONDITION = {"point": ("id", "="), "in": ("id", "IN"), "index": ("grp", "=")}


def render(spec, dialect):
    where = [c for c in spec["where"] if dialect == "sql" or c[1] in PUSHABLE_OPS]
    if "access" in spec:
        kind, wanted = spec["access"]
        where = [(*_ACCESS_CONDITION[kind], wanted), *where]
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


def build(ops, dialect, row_cache_bytes=None, indexed=False):
    """Apply ``ops`` through the storage API; returns (session, table)."""
    budgets = {} if row_cache_bytes is None else {"REPRO_ROW_CACHE_BYTES": row_cache_bytes}
    with env(**budgets):
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
    if indexed:
        session.execute("CREATE INDEX t_grp ON t (grp)")
    live = set()
    for op in ops:
        kind = op[0]
        if kind == "insert":
            _, key, grp, val = op
            row = {"id": key, "grp": grp, "val": val}
            if dialect == "sql" and key in live:
                table.update_where(BoundPredicate((("id", "=", key),)), {"grp": grp, "val": val})
            else:
                table.insert({k: v for k, v in row.items() if v is not None})
            live.add(key)
        elif kind == "null" and op[1] in live:
            if dialect == "sql":
                table.update_where(BoundPredicate((("id", "=", op[1]),)), {"val": None})
            else:
                table.update(op[1], {"val": None})
        elif kind == "delete" and op[1] in live:
            live.discard(op[1])
            if dialect == "sql":
                table.delete_where(BoundPredicate((("id", "=", op[1]),)))
            else:
                table.delete(op[1])
        elif kind in ("flush", "compact", "seal_memtable") and dialect == "cql":
            getattr(table, kind)()
    return session, table


@given(
    ops=ops_strategy,
    specs=st.lists(spec_strategy, min_size=1, max_size=4),
    dialect=st.sampled_from(("sql", "cql")),
)
@settings(max_examples=120, deadline=None)
def test_batch_path_answers_like_the_row_path(ops, specs, dialect):
    session, table = build(ops, dialect)
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
            leaf = session.execute("EXPLAIN ANALYZE " + text).rows[0]
            assert leaf["node"] == "FullScan"
            assert leaf["rows"] + leaf["rows_pruned"] == examined, text


# ----------------------------------------------------------------------
# fetches: point, multi-get and index leaves
# ----------------------------------------------------------------------
fetch_ops_strategy = st.lists(
    st.one_of(
        ops_strategy.wrapped_strategy.element_strategy,
        st.tuples(st.just("seal_memtable")),
    ),
    max_size=40,
)

fetch_spec_strategy = st.fixed_dictionaries({
    "access": st.one_of(
        st.tuples(st.just("point"), st.integers(0, 15)),
        st.tuples(st.just("in"), st.lists(st.integers(0, 16), min_size=1, max_size=8)),
        st.tuples(st.just("index"), st.sampled_from(GROUPS)),
    ),
    "where": st.lists(condition_strategy.filter(lambda c: c[0] == "val"), max_size=2),
    "shape": st.sampled_from(("rows", "rows", "count")),
    "columns": st.sampled_from(((), ("id", "val"), ("grp",), ("val",))),
    "order": st.one_of(st.none(), st.tuples(st.sampled_from(("id", "val")), st.booleans())),
    "limit": st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
})

FETCH_LEAVES = {"point": "PointLookup", "in": "MultiGet", "index": "IndexScan"}


@given(
    ops=fetch_ops_strategy,
    specs=st.lists(fetch_spec_strategy, min_size=1, max_size=5),
    dialect=st.sampled_from(("sql", "cql")),
    row_cache_bytes=st.sampled_from((0, 1 << 20)),
)
@settings(max_examples=150, deadline=None)
def test_fetch_path_answers_like_the_row_path(ops, specs, dialect, row_cache_bytes):
    session, table = build(ops, dialect, row_cache_bytes, indexed=True)
    for spec in specs:
        text = render(spec, dialect)
        expected, fetched = oracle_answer(table, spec, dialect)
        assert session.execute(text).rows == expected, text
        assert session.execute(text).rows == expected, text  # warm plan, warm row cache
        leaf = session.execute("EXPLAIN ANALYZE " + text).rows[0]
        assert leaf["node"] == FETCH_LEAVES[spec["access"][0]], text
        if spec["limit"] != 0:  # LIMIT 0 never pulls from the leaf
            assert leaf["rows"] + leaf["rows_pruned"] == fetched, text


# ----------------------------------------------------------------------
# a maintained cube with live delta epochs
# ----------------------------------------------------------------------
BATCHES = [
    [("a", 1, "x", 5), ("a", 2, "y", 3), ("b", 1, "x", 2)],
    [("a", 1, "x", 4), ("b", 3, "z", 7)],
    [("c", 2, "y", 1), ("a", 2, "y", 6)],
]


def test_maintained_cube_reads_through_live_deltas():
    schema = CubeSchema("inc", ["d1", "d2", "d3"])
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


# ----------------------------------------------------------------------
# relational tables: every column type, in any order, NULL anywhere
# ----------------------------------------------------------------------
#: The random relational table's columns; ``id`` is its primary key and,
#: like every other column, may sit at any position.
TYPED = {"id": "INT", "i": "INT", "b": "BIGINT", "f": "BOOLEAN", "d": "DOUBLE",
         "v": "VARCHAR(9000)", "s": "TEXT"}
#: Lengths are zigzag varints: 63 and 8191 bytes are the longest with a
#: 1- and a 2-byte prefix.  ASCII and multi-byte UTF-8 on both sides.
TEXTS = ("", "x", "ünï✓", "a" * 63, "a" * 64, "é" * 32, "b" * 8191, "b" * 8192,
         "é" * 4095 + "a", "é" * 4096)
#: Few distinct values per type, so that equality and GROUP BY meet.
VALUES = {
    "INT": (-3, -1, 0, 1, 2, -2 ** 31, 2 ** 31 - 1),
    "BIGINT": (-3, 0, 1, 2, -2 ** 63, 2 ** 63 - 1),
    "BOOLEAN": (False, True),
    "DOUBLE": (-1.5, -0.5, 0.0, 0.5, 1.0, 2.5),  # exact sums in any order
    "VARCHAR(9000)": TEXTS,
    "TEXT": TEXTS,
}
OPS = ("=", "!=", "<", ">", "<=", ">=", "IN", "ISNULL", "NOTNULL")


def typed_rows(columns, n, null_rate, seed):
    """``n`` rows over ``columns`` (ids 0..n-1 inserted in shuffled
    order), each non-key value NULL with probability ``null_rate``."""
    rng = random.Random(seed)
    keys = list(range(n))
    rng.shuffle(keys)
    rows = []
    for key in keys:
        row = {"id": key}
        for column in columns:
            if column != "id" and rng.random() >= null_rate:
                row[column] = rng.choice(VALUES[TYPED[column]])
        rows.append(row)
    return rows


def build_typed(columns, link_columns, indexed, rows, links):
    session = SQLEngine().connect()
    session.execute("CREATE DATABASE d")
    session.execute("USE d")
    session.execute("CREATE TABLE t (" + ", ".join(
        f"{c} {TYPED[c]}" + (" PRIMARY KEY" if c == "id" else "") for c in columns
    ) + ")")
    link_types = {"node_id": "INT", "cell_id": "INT", "w": "TEXT"}
    session.execute("CREATE TABLE l (" + ", ".join(
        f"{c} {link_types[c]}" for c in link_columns
    ) + ", PRIMARY KEY (node_id, cell_id))")
    if indexed is not None:
        session.execute(f"CREATE INDEX t_idx ON t ({indexed})")
    database = session.engine.database("d")
    t, l = database.table("t"), database.table("l")
    for row in rows:
        t.insert(row)
    for link in links:
        l.insert({k: v for k, v in zip(("node_id", "cell_id", "w"), link) if v is not None})
    return session, t, l


def condition(column, op, value):
    if op == "ISNULL":
        return f"{column} IS NULL", ()
    if op == "NOTNULL":
        return f"{column} IS NOT NULL", ()
    if op == "IN":
        return f"{column} IN ({', '.join('?' * len(value))})", tuple(value)
    return f"{column} {op} ?", (value,)


@st.composite
def typed_conditions(draw, columns, indexed):
    """Conditions a full scan keeps: none the planner would turn into a
    point, multi-get or index access."""
    out = []
    for _ in range(draw(st.integers(0, 3))):
        column = draw(st.sampled_from(columns))
        values = VALUES[TYPED[column]]
        forbidden = ("=", "IN") if column == "id" else ("=",) if column == indexed else ()
        op = draw(st.sampled_from([op for op in OPS if op not in forbidden]))
        if op == "IN":
            value = draw(st.lists(st.sampled_from(values), min_size=1, max_size=3))
        else:
            value = draw(st.sampled_from(values)) if op not in ("ISNULL", "NOTNULL") else None
        out.append((column, op, value))
    return out


@st.composite
def typed_specs(draw, columns, indexed):
    kinds = ["scan", "count", "group", "join", "point", "in", "prefix"]
    if indexed is not None:
        kinds.append("index")
    kind = draw(st.sampled_from(kinds))
    where = draw(typed_conditions(columns, indexed))
    if kind == "point":
        where.insert(0, ("id", "=", draw(st.integers(-1, 160))))
    elif kind == "in":
        where.insert(0, ("id", "IN", draw(st.lists(st.integers(-1, 160), min_size=1, max_size=6))))
    elif kind == "index":
        where.insert(0, (indexed, "=", draw(st.sampled_from(VALUES[TYPED[indexed]]))))
    spec = {"kind": kind, "where": where,
            "columns": draw(st.one_of(st.just(()), st.lists(
                st.sampled_from(columns), min_size=1, max_size=4, unique=True))),
            "order": draw(st.one_of(st.none(), st.tuples(st.sampled_from(columns),
                                                          st.booleans()))),
            "limit": draw(st.one_of(st.none(), st.integers(0, 8)))}
    if kind == "group":
        spec["group"] = draw(st.sampled_from(columns))
        spec["value"] = draw(st.sampled_from(("i", "b", "d")))
    if kind == "prefix":
        spec["where"] = [("node_id", "=", draw(st.integers(0, 4)))]
    return spec


def render_typed(spec):
    kind, table = spec["kind"], "l" if spec["kind"] == "prefix" else "t"
    if kind == "join":
        projected = [f"t.{c}" for c in spec["columns"] or ("id",)] + ["l.node_id", "l.w"]
        source = "t JOIN l ON l.cell_id = t.id"
    else:
        projected = list(spec["columns"]) if kind != "prefix" else []
        source = table
    if kind == "count":
        select = "COUNT(*)"
    elif kind == "group":
        value = spec["value"]
        select = (f"{spec['group']}, COUNT(*), SUM({value}), MIN({value}), "
                  f"MAX({value}), AVG({value}), COUNT({value})")
    else:
        select = ", ".join(projected) or "*"
    parts, params = [], []
    for column, op, value in spec["where"]:
        text, bound = condition(f"t.{column}" if kind == "join" else column, op, value)
        parts.append(text)
        params.extend(bound)
    text = f"SELECT {select} FROM {source}"
    if parts:
        text += " WHERE " + " AND ".join(parts)
    if kind == "group":
        return text + f" GROUP BY {spec['group']}", params
    if spec["order"] is not None and kind != "count":
        column = spec["order"][0] if kind != "prefix" else "cell_id"
        text += f" ORDER BY {'t.' if kind == 'join' else ''}{column}"
        text += " DESC" if spec["order"][1] else " ASC"
    if spec["limit"] is not None:
        text += f" LIMIT {spec['limit']}"
    return text, params


def oracle_typed(t, l, spec):
    """The answer of one statement from rows decoded whole
    (``decode_row``) in the order its leaf hands them up."""
    kind = spec["kind"]
    if kind in ("point", "in"):
        _, op, wanted = spec["where"][0]
        keys = [wanted] if op == "=" else wanted
        rows = [row for row in map(lambda key: oracle_get(t, key), keys) if row is not None]
    elif kind == "index":
        column, _, wanted = spec["where"][0]
        rows = sorted((row for row in oracle_scan(t, [])[0] if row[column] == wanted),
                      key=lambda row: row["id"])
    elif kind == "prefix":  # the composite key's leading column
        rows = [reference_decode(l, encoded) for _, encoded in l._clustered.items()]
    else:
        rows = oracle_scan(t, [])[0]
    rows = [row for row in rows if _passes(row, spec["where"])]
    if kind == "count":
        return [{"count": len(rows)}]
    if kind == "group":
        value, groups = spec["value"], {}
        for row in rows:
            groups.setdefault(row[spec["group"]], []).append(row[value])
        out = []
        for key, members in groups.items():
            present = [v for v in members if v is not None]
            out.append({spec["group"]: key, "count": len(members),
                        **{f"{func}({value})": evaluate_aggregate(func, present)
                           for func in ("sum", "min", "max", "avg", "count")}})
        return out
    labels = None
    if kind == "join":
        build = {}
        for link in oracle_scan(l, [])[0]:
            build.setdefault(link["cell_id"], []).append(link)
        names = spec["columns"] or ("id",)
        rows = [{**{f"t.{c}": row[c] for c in names}, "l.node_id": link["node_id"],
                 "l.w": link["w"], "_order": row}
                for row in rows for link in build.get(row["id"], ())]
        labels = [f"t.{c}" for c in names] + ["l.node_id", "l.w"]
    order = spec["order"]
    if order is not None:
        column = "cell_id" if kind == "prefix" else order[0]
        key = (lambda row: null_safe_key(row["_order"][column])) if kind == "join" else (
            lambda row: null_safe_key(row[column]))
        rows = sorted(rows, key=key, reverse=order[1])
    if spec["limit"] is not None:
        rows = rows[:spec["limit"]]
    if labels is not None:
        return [{label: row[label] for label in labels} for row in rows]
    if spec["columns"] and kind != "prefix":
        return [{name: row[name] for name in spec["columns"]} for row in rows]
    return rows


TYPED_LEAVES = {"point": "PointLookup", "in": "MultiGet", "index": "IndexScan",
                "prefix": "IndexScan"}


@given(
    data=st.data(),
    columns=st.permutations(tuple(TYPED)),
    link_columns=st.permutations(("node_id", "cell_id", "w")),
    indexed=st.sampled_from((None, "i", "f", "d", "v")),
    n=st.integers(0, 150),  # up to three leaf pages
    null_rate=st.sampled_from((0.0, 0.3, 0.9)),
    seed=st.integers(0, 2 ** 16),
)
@settings(max_examples=100, deadline=None)
def test_column_reads_answer_like_the_full_row_decode(
    data, columns, link_columns, indexed, n, null_rate, seed
):
    """Pages whose rows are read a column at a time answer every
    statement exactly as rows decoded whole did, rows in order."""
    rows = typed_rows(columns, n, null_rate, seed)
    links = data.draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(-1, n),
                  st.one_of(st.none(), st.sampled_from(TEXTS))),
        max_size=40, unique_by=lambda link: link[:2],
    ))
    session, t, l = build_typed(columns, link_columns, indexed, rows, links)
    for spec in data.draw(st.lists(typed_specs(columns, indexed), min_size=1, max_size=4)):
        text, params = render_typed(spec)
        expected = oracle_typed(t, l, spec)
        assert session.execute(text, params).rows == expected, text
        assert session.execute(text, params).rows == expected, text  # warm plan
        leaf = session.execute("EXPLAIN " + text, params).rows[0]
        assert leaf["node"] == TYPED_LEAVES.get(spec["kind"], "FullScan"), text
