"""What the batch execution path must not do: scan past a LIMIT, build
rows for a COUNT, re-encode columnar blocks for an unfiltered scan, or
report pruning one row at a time.

These pin *work done* through operator counters, block-cache misses and
call spies — never wall time.  The LIMIT and unfiltered-scan cases are
regression tests: both fail on the row-generator scan chain this path
replaced (``list(table.scan())`` before ``Limit``; ``SSTable.items()``
-> ``ColumnVectors.materialize`` -> ``decode_row`` for unpushed scans).
"""

from collections import Counter

import pytest

from repro.mapping.registry import make_mapper
from repro.mapping.stored_query import stored_cell_count, stored_select
from repro.dwarf.builder import DwarfBuilder
from repro.core.schema import CubeSchema
from repro.dwarf.query import Each
from repro.nosqldb.columnar import ColumnVectors
from repro.nosqldb.engine import NoSQLEngine
from repro.query import BoundPredicate, RowBatch, VectorBatch
from repro.sqldb.engine import SQLEngine
from repro.sqldb.table import PageBatch
from tests.conftest import scan_rows

N_ROWS = 3000  # dozens of columnar blocks / B-tree leaf pages


def build_cql(rows=N_ROWS, layers=1):
    session = NoSQLEngine().connect()
    session.execute("CREATE KEYSPACE k")
    session.execute("USE k")
    session.execute("CREATE TABLE t (id int PRIMARY KEY, grp text, val int)")
    table = session.engine.keyspace("k").table("t")
    step = rows // layers
    for i in range(rows):
        table.insert({"id": i, "grp": f"g{i * 3 // rows}", "val": i % 50})
        if (i + 1) % step == 0:
            table.flush()
    table.flush()
    return session, table


def build_sql(rows=N_ROWS):
    session = SQLEngine().connect()
    session.execute("CREATE DATABASE d")
    session.execute("USE d")
    session.execute("CREATE TABLE t (id INT PRIMARY KEY, grp VARCHAR(8), val INT)")
    table = session.engine.database("d").table("t")
    ids = range(rows)
    table.insert_columns(("id", "grp", "val"), (
        list(ids), [f"g{i * 3 // rows}" for i in ids], [i % 50 for i in ids],
    ))
    return session, table


def leaf(session, text):
    return session.execute("EXPLAIN ANALYZE " + text).rows[0]


@pytest.fixture
def built_rows(monkeypatch):
    """Counts every row dict a batch builds while the test runs."""
    built = []
    for cls in (RowBatch, VectorBatch):
        original = cls.rows

        def spy(self, names=None, _original=original):
            out = _original(self, names)
            built.append(len(out))
            return out

        monkeypatch.setattr(cls, "rows", spy)
    return built


# ----------------------------------------------------------------------
# LIMIT stops the scan
# ----------------------------------------------------------------------
class TestLimitStopsTheScan:
    def test_cql_limit_decodes_only_the_blocks_it_needs(self):
        session, table = build_cql()
        blocks = table.stats().columnar_blocks
        assert blocks > 10
        cold = table.stats().block_cache.misses
        assert len(session.execute("SELECT * FROM t LIMIT 5").rows) == 5
        assert table.stats().block_cache.misses - cold == 1  # one block, not all
        scanned = leaf(session, "SELECT * FROM t LIMIT 5")
        assert scanned["node"] == "FullScan"
        assert 5 <= scanned["rows"] < N_ROWS / 4  # the leaf reports what it emitted
        # a pushed predicate skips the leading blocks and still stops early
        scanned = leaf(session, "SELECT id FROM t WHERE grp = 'g2' LIMIT 5 ALLOW FILTERING")
        assert scanned["rows"] < N_ROWS / 4 and scanned["blocks_skipped"] > 0

    def test_sql_limit_decodes_only_the_pages_it_needs(self, monkeypatch):
        session, table = build_sql()
        decoded = []
        original = PageBatch.decode
        monkeypatch.setattr(
            PageBatch, "decode",
            lambda page, name: decoded.extend([name] * len(page.encoded)) or original(page, name),
        )
        assert [r["id"] for r in session.execute("SELECT id FROM t LIMIT 5").rows] == [0, 1, 2, 3, 4]
        assert set(decoded) == {"id"}
        assert 5 <= len(decoded) <= 64  # one leaf page at most
        assert leaf(session, "SELECT id FROM t LIMIT 5")["rows"] <= 64

    def test_sort_below_limit_still_sees_every_row(self):
        for session, _ in (build_cql(), build_sql()):
            rows = session.execute("SELECT id FROM t ORDER BY id DESC LIMIT 3").rows
            assert [r["id"] for r in rows] == [N_ROWS - 1, N_ROWS - 2, N_ROWS - 3]
            assert leaf(session, "SELECT id FROM t ORDER BY id DESC LIMIT 3")["rows"] == N_ROWS

    def test_count_and_limit_keep_their_dialect_semantics(self):
        cql, _ = build_cql()
        sql, _ = build_sql()
        # CQL counts what the statement returns: LIMIT applies first...
        assert cql.execute("SELECT count(*) FROM t LIMIT 7").rows == [{"count": 7}]
        assert leaf(cql, "SELECT count(*) FROM t LIMIT 7")["rows"] < N_ROWS / 4
        assert cql.execute("SELECT count(*) FROM t LIMIT 0").rows == [{"count": 0}]
        # ...SQL's COUNT ignores it.
        assert sql.execute("SELECT COUNT(*) FROM t LIMIT 7").rows == [{"count": N_ROWS}]


# ----------------------------------------------------------------------
# nothing is built that the statement does not return
# ----------------------------------------------------------------------
class TestLateMaterialization:
    def test_unfiltered_scan_never_reencodes_columnar_rows(self, monkeypatch):
        session, table = build_cql(layers=2)
        assert table.stats().columnar_blocks > 10

        def forbidden(self, i):
            raise AssertionError("an unpushed scan re-encoded a columnar row")

        monkeypatch.setattr(ColumnVectors, "materialize", forbidden)
        rows = session.execute("SELECT * FROM t").rows
        assert len(rows) == N_ROWS
        assert rows[0] == {"id": 1500, "grp": "g1", "val": 0}  # newest layer first
        assert sorted(r["id"] for r in rows) == list(range(N_ROWS))
        assert len(scan_rows(table)) == N_ROWS  # the row view rides the batches too

    def test_count_builds_no_row_dicts(self, built_rows):
        cql, cql_table = build_cql(layers=2)
        sql, _ = build_sql()
        cql_table.insert({"id": N_ROWS, "grp": "g0", "val": 1})  # a memtable layer too
        statements = (
            (cql, "SELECT count(*) FROM t", N_ROWS + 1),
            (cql, "SELECT count(*) FROM t WHERE grp = 'g1' ALLOW FILTERING", 1000),
            (cql, "SELECT count(*) FROM t WHERE grp = 'g1' AND val > 40 ALLOW FILTERING", 180),
            (sql, "SELECT COUNT(*) FROM t", N_ROWS),
            (sql, "SELECT COUNT(*) FROM t WHERE grp = 'g1' AND val IS NOT NULL", 1000),
        )
        for session, text, expected in statements:
            built_rows.clear()
            assert session.execute(text).rows == [{"count": expected}], text
            # the only rows() call materializes the Aggregate's one output row
            assert built_rows == [1], text
        # COUNT(*) over a plain table never even decodes: the filtered
        # count is no slower than the doubly filtered one by construction.
        plain = leaf(cql, "SELECT count(*) FROM t WHERE grp = 'g1' ALLOW FILTERING")
        narrow = leaf(cql, "SELECT count(*) FROM t WHERE grp = 'g1' AND val > 40 ALLOW FILTERING")
        assert plain["rows"] + plain["rows_pruned"] == narrow["rows"] + narrow["rows_pruned"]

    def test_sql_count_decodes_nothing(self, monkeypatch):
        session, table = build_sql()
        monkeypatch.setattr(
            PageBatch, "decode",
            lambda *args: (_ for _ in ()).throw(AssertionError("COUNT(*) decoded a row")),
        )
        assert session.execute("SELECT COUNT(*) FROM t").rows == [{"count": N_ROWS}]

    def test_sql_reads_decode_only_the_columns_they_name(self, monkeypatch):
        # The feed_to_sql store shape: MySQL-DWARF's six-column CELL table.
        mapper = make_mapper("MySQL-DWARF")
        cube = DwarfBuilder(CubeSchema("c", ["d1", "d2"])).build(
            [(f"m{i % 7}", i % 5, i) for i in range(300)]
        )
        mapper.store(cube, probe_size=False)
        cells = mapper.table("CELL")
        expected = sum(row["measure"] for row in scan_rows(cells)
                       if row["leaf"] and row["measure"] > 40)
        decoded = Counter()
        original = PageBatch.decode
        monkeypatch.setattr(
            PageBatch, "decode",
            lambda page, name: decoded.update({(page.table.name, name): len(page.encoded)})
            or original(page, name),
        )
        session = mapper.session
        total = session.execute(
            "SELECT SUM(measure) FROM CELL WHERE leaf = 1 AND measure > ?", (40,)
        ).one()["sum(measure)"]
        assert total == expected
        # each named column decoded once per row, no other column at all
        assert decoded == {("CELL", "leaf"): len(cells), ("CELL", "measure"): len(cells)}
        decoded.clear()
        assert session.execute("SELECT COUNT(*) FROM CELL").rows == [{"count": len(cells)}]
        assert not decoded

    def test_sql_fixed_width_page_decodes_only_the_column_named(self, monkeypatch):
        # NODE_CHILDREN(node_id, cell_id): every row is two INTs, so each
        # page is one all-fixed run, unpacked by struct.
        mapper = make_mapper("MySQL-DWARF")
        cube = DwarfBuilder(CubeSchema("c", ["d1", "d2"])).build(
            [(f"m{i % 7}", i % 5, i) for i in range(300)]
        )
        mapper.store(cube, probe_size=False)
        links = mapper.table("NODE_CHILDREN")
        expected = sorted(row["cell_id"] for row in scan_rows(links))
        decoded, pages = Counter(), []
        original = PageBatch.decode

        def spy(page, name):
            decoded.update({(page.table.name, name): len(page.encoded)})
            pages.append(page)
            return original(page, name)

        monkeypatch.setattr(PageBatch, "decode", spy)
        rows = mapper.session.execute("SELECT cell_id FROM NODE_CHILDREN").rows
        assert sorted(row["cell_id"] for row in rows) == expected
        assert decoded == {("NODE_CHILDREN", "cell_id"): len(links)}
        # one bitmap per page, of a 9-byte all-fixed shape: struct-unpacked
        assert pages
        for page in pages:
            [(shape, _, _, _)] = page._runs
            assert shape.size == 9

    def test_projection_builds_only_the_named_columns(self, built_rows):
        session, _ = build_cql()
        rows = session.execute("SELECT id, val FROM t WHERE grp = 'g2' ALLOW FILTERING").rows
        assert len(rows) == 1000 and set(rows[0]) == {"id", "val"}
        assert sum(built_rows) == 1000  # each returned row built once, no others

    def test_stored_select_scan_reads_columns_not_rows(self, built_rows):
        mapper = make_mapper("NoSQL-DWARF")
        cube = DwarfBuilder(CubeSchema("c", ["d1", "d2"])).build(
            [(f"m{i % 7}", i % 5, i) for i in range(200)]
        )
        schema_id = mapper.store(cube, probe_size=False)
        for table in mapper.engine.keyspace(mapper.keyspace_name).tables:
            table.flush()
        built_rows.clear()
        scanned = list(stored_select(mapper, schema_id, strategy="scan", d1=Each()))
        # the dimension read builds its two rows; no cell row is ever built
        assert max(built_rows, default=0) <= 2 < cube.stats.cell_count
        assert scanned == list(stored_select(mapper, schema_id, strategy="walk", d1=Each()))
        assert stored_cell_count(mapper, schema_id) == cube.stats.cell_count


# ----------------------------------------------------------------------
# sqldb reports pruning per batch, not per row
# ----------------------------------------------------------------------
def test_sqldb_reports_pruned_rows_once_per_page(monkeypatch):
    session, table = build_sql()
    calls = []
    original = BoundPredicate.note_pruned
    monkeypatch.setattr(
        BoundPredicate, "note_pruned",
        lambda self, rows: calls.append(rows) or original(self, rows),
    )
    assert len(session.execute("SELECT id FROM t WHERE val = 7").rows) == N_ROWS // 50
    assert sum(calls) == N_ROWS - N_ROWS // 50
    assert len(calls) <= N_ROWS // 32  # one call per leaf page, not per rejected row
    scanned = leaf(session, "SELECT id FROM t WHERE val = 7")
    assert scanned["rows"] + scanned["rows_pruned"] == N_ROWS


# ----------------------------------------------------------------------
# a stored count beside a co-resident cube
# ----------------------------------------------------------------------
def test_stored_count_and_scan_skip_the_coresident_cube():
    """What bench_parallel_query's CI job guarded, at the one layout:
    the stored COUNT(*) and the scan select answer exactly, and zone
    maps refute the other cube's blocks unread."""
    mapper = make_mapper("NoSQL-DWARF")
    schema = CubeSchema("c", ["d1", "d2", "d3"])
    other = DwarfBuilder(schema).build(
        [(f"o{i % 11}", i % 13, f"x{i % 5}", 1) for i in range(900)]
    )
    cube = DwarfBuilder(schema).build(
        [(f"m{i % 9}", i % 17, f"y{i % 7}", i) for i in range(900)]
    )
    mapper.store(other, probe_size=False)
    schema_id = mapper.store(cube, probe_size=False)
    for table in mapper.engine.keyspace(mapper.keyspace_name).tables:
        table.compact()
    cells = mapper.engine.keyspace(mapper.keyspace_name).table("dwarf_cell")
    skipped_before = cells.stats().blocks_skipped
    assert stored_cell_count(mapper, schema_id) == cube.stats.cell_count
    assert cells.stats().blocks_skipped > skipped_before
    scan = list(stored_select(mapper, schema_id, strategy="scan", d1=Each(), d2=Each()))
    assert scan == list(stored_select(mapper, schema_id, strategy="walk",
                                      d1=Each(), d2=Each()))
