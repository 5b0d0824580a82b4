"""Predicate pushdown: same answers as Filter operators, on both engines.

A pushed predicate must be a pure relocation of work — never a change in
semantics.  Every query here runs twice: once through the planner (which
pushes eligible conditions into the access leaf) and once against a
reference computed row-wise; on the NoSQL side additionally over the
memtable's encoded rows and over the columnar blocks they flush into,
where the answers must agree byte-for-byte.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.nosqldb.engine import NoSQLEngine
from repro.query.pushdown import PUSHABLE_OPS
from repro.sqldb.engine import SQLEngine


def nosql_session(flushed=True):
    s = NoSQLEngine().connect()
    s.execute("CREATE KEYSPACE ks")
    s.execute("USE ks")
    s.execute("CREATE TABLE cells (id int PRIMARY KEY, name text, m int)")
    for i in range(150):
        s.execute(
            "INSERT INTO cells (id, name, m) VALUES (?, ?, ?)",
            (i, f"n{i % 4}", i),
        )
    if flushed:
        s.engine.keyspace("ks").table("cells").flush()
    return s


def sql_session():
    s = SQLEngine().connect()
    s.execute("CREATE DATABASE db")
    s.execute("USE db")
    s.execute("CREATE TABLE cells (id INT PRIMARY KEY, name VARCHAR(10), m INT)")
    for i in range(150):
        s.execute(
            "INSERT INTO cells (id, name, m) VALUES (?, ?, ?)", (i, f"n{i % 4}", i)
        )
    return s


REFERENCE = [{"id": i, "name": f"n{i % 4}", "m": i} for i in range(150)]

# The CQL grammar has no `!=`, so the shared list sticks to the common
# operator subset; `!=` gets its own SQL-side test below.
QUERIES = [
    ("name = ?", ("n1",), lambda r: r["name"] == "n1"),
    ("m < ?", (40,), lambda r: r["m"] < 40),
    ("m >= ?", (120,), lambda r: r["m"] >= 120),
    ("name = ? AND m > ?", ("n2", 60), lambda r: r["name"] == "n2" and r["m"] > 60),
    ("m IN (?, ?, ?)", (3, 7, 999), lambda r: r["m"] in (3, 7, 999)),
]


class TestNoSQLAnswers:
    @pytest.mark.parametrize("layer", ["memtable", "sstable"])
    @pytest.mark.parametrize("where,params,ref", QUERIES)
    def test_pushed_scan_matches_reference(self, layer, where, params, ref):
        s = nosql_session(flushed=layer == "sstable")
        rows = s.execute(
            f"SELECT * FROM cells WHERE {where} ALLOW FILTERING", params
        ).rows
        expected = [r for r in REFERENCE if ref(r)]
        assert sorted(rows, key=lambda r: r["id"]) == expected

    def test_formats_agree_exactly(self):
        """Pushed scans over the memtable's encoded rows and over the
        columnar blocks they flush into, against the unpushed scan."""
        row_s, col_s = nosql_session(flushed=False), nosql_session()
        unpushed = col_s.execute("SELECT * FROM cells").rows
        for where, params, ref in QUERIES:
            q = f"SELECT * FROM cells WHERE {where} ALLOW FILTERING"
            expected = [row for row in unpushed if ref(row)]
            assert row_s.execute(q, params).rows == col_s.execute(q, params).rows == expected

    def test_index_scan_pushdown_matches_reference(self):
        s = nosql_session()
        s.execute("CREATE INDEX ON cells (name)")
        rows = s.execute(
            "SELECT * FROM cells WHERE name = ? AND m < ?", ("n3", 50)
        ).rows
        expected = [r for r in REFERENCE if r["name"] == "n3" and r["m"] < 50]
        assert sorted(rows, key=lambda r: r["id"]) == expected

    def test_pushdown_sees_unflushed_writes(self):
        s = nosql_session()
        s.execute("INSERT INTO cells (id, name, m) VALUES (999, 'n1', -5)")
        rows = s.execute(
            "SELECT * FROM cells WHERE m < ? ALLOW FILTERING", (0,)
        ).rows
        assert rows == [{"id": 999, "name": "n1", "m": -5}]


class TestSQLAnswers:
    @pytest.mark.parametrize("where,params,ref", QUERIES)
    def test_pushed_scan_matches_reference(self, where, params, ref):
        s = sql_session()
        rows = s.execute(f"SELECT * FROM cells WHERE {where}", params).rows
        expected = [r for r in REFERENCE if ref(r)]
        assert sorted(rows, key=lambda r: r["id"]) == expected

    def test_join_condition_stays_residual(self):
        s = sql_session()
        s.execute("CREATE TABLE links (id INT PRIMARY KEY, cell INT)")
        for i in range(30):
            s.execute("INSERT INTO links (id, cell) VALUES (?, ?)", (i, i * 3))
        plan = s.execute(
            "EXPLAIN SELECT c.id FROM cells c JOIN links l ON c.id = l.cell "
            "WHERE c.name = ? AND l.id < ?",
            ("n1", 10),
        ).rows
        details = [row["detail"] for row in plan]
        assert any("pushed=c.name = ?0" in d for d in details)
        assert any(d == "l.id < ?1" for d in details)  # residual Filter
        rows = s.execute(
            "SELECT c.id FROM cells c JOIN links l ON c.id = l.cell "
            "WHERE c.name = ? AND l.id < ?",
            ("n1", 10),
        ).rows
        expected = sorted(
            i * 3 for i in range(10) if (i * 3) % 4 == 1 and i * 3 < 150
        )
        assert sorted(r["c.id"] for r in rows) == expected

    def test_not_equal_pushes_down(self):
        s = sql_session()
        plan = s.execute("EXPLAIN SELECT * FROM cells WHERE name != ?", ("n0",)).rows
        assert plan[0]["detail"] == "full scan, pushed=name != ?0"
        rows = s.execute("SELECT * FROM cells WHERE name != ?", ("n0",)).rows
        expected = [r for r in REFERENCE if r["name"] != "n0"]
        assert sorted(rows, key=lambda r: r["id"]) == expected

    def test_isnull_stays_residual(self):
        s = sql_session()
        s.execute("INSERT INTO cells (id, name, m) VALUES (500, NULL, 1)")
        plan = s.execute("EXPLAIN SELECT * FROM cells WHERE name IS NULL").rows
        assert any(row["node"] == "Filter" for row in plan)
        rows = s.execute("SELECT * FROM cells WHERE name IS NULL").rows
        assert [r["id"] for r in rows] == [500]


class TestExplain:
    def test_fully_absorbed_filter_disappears_cql(self):
        s = nosql_session()
        plan = s.execute(
            "EXPLAIN SELECT * FROM cells WHERE name = ? ALLOW FILTERING", ("n1",)
        ).rows
        assert [row["node"] for row in plan] == ["FullScan"]
        assert plan[0]["detail"] == "full scan, pushed=name = ?0"

    def test_fully_absorbed_filter_disappears_sql(self):
        s = sql_session()
        plan = s.execute(
            "EXPLAIN SELECT id FROM cells WHERE name = ?", ("n1",)
        ).rows
        assert [row["node"] for row in plan] == ["FullScan", "Project"]
        assert plan[0]["detail"] == "full scan, pushed=name = ?0"

    def test_vocabulary_identical_across_engines(self):
        nosql = nosql_session().execute(
            "EXPLAIN SELECT * FROM cells WHERE m < ? ALLOW FILTERING", (5,)
        ).rows
        sql = sql_session().execute(
            "EXPLAIN SELECT * FROM cells WHERE m < ?", (5,)
        ).rows
        assert nosql[0]["detail"] == sql[0]["detail"] == "full scan, pushed=m < ?0"

    def test_counters_reach_operator_stats(self):
        s = nosql_session()
        query = "SELECT * FROM cells WHERE m < ? ALLOW FILTERING"
        s.execute(query, (10,))
        key = next(k for k, _ in s.plan_cache.entries() if query in str(k))
        stats = s.plan_cache.get(key).operator_stats()
        scan = next(op for op in stats if op.node == "FullScan")
        assert scan.rows_pruned > 0


# ----------------------------------------------------------------------
# property: the zone-map prefilter never contradicts row-wise evaluation
# ----------------------------------------------------------------------
ops = sorted(PUSHABLE_OPS - {"IN"})


@given(
    values=st.lists(st.integers(-50, 50), min_size=1, max_size=30),
    op=st.sampled_from(ops),
    needle=st.integers(-60, 60),
)
@settings(max_examples=200, deadline=None)
def test_zone_refutation_is_sound(values, op, needle):
    """A refuted zone must contain no row the predicate accepts."""
    from repro.query.expr import compare
    from repro.query.pushdown import _zone_may_match

    lo, hi = min(values), max(values)
    distinct = frozenset(values) if len(set(values)) <= 16 else None
    zone = (lo, hi, distinct)
    if not _zone_may_match(zone, op, needle):
        assert not any(compare(op, v, needle) for v in values)
