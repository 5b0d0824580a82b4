"""SQL execution: access paths, joins, projections, DML."""

import pytest

from repro.analysis.heap_check import heap_check
from repro.sqldb.engine import SQLEngine
from repro.sqldb.errors import IntegrityError, ProgrammingError
from tests.conftest import scan_rows


@pytest.fixture
def session():
    engine = SQLEngine()
    s = engine.connect()
    s.execute("CREATE DATABASE dwarf")
    s.execute("USE dwarf")
    s.execute(
        "CREATE TABLE CELL (id INT PRIMARY KEY, cell_key VARCHAR(64), "
        "measure INT, leaf BOOLEAN NOT NULL)"
    )
    s.execute("CREATE TABLE NODE (id INT PRIMARY KEY, root BOOLEAN)")
    s.execute(
        "CREATE TABLE NODE_CHILDREN (node_id INT, cell_id INT, "
        "PRIMARY KEY (node_id, cell_id))"
    )
    return s


def fill(session):
    session.execute(
        "INSERT INTO CELL (id, cell_key, measure, leaf) VALUES "
        "(1, 'Fenian St', 3, TRUE), (2, 'Portobello', 5, TRUE), "
        "(3, 'Dublin', NULL, FALSE), (4, 'Cork', NULL, FALSE)"
    )
    session.execute("INSERT INTO NODE (id, root) VALUES (10, TRUE), (11, FALSE)")
    session.execute(
        "INSERT INTO NODE_CHILDREN (node_id, cell_id) VALUES "
        "(10, 3), (10, 4), (11, 1), (11, 2)"
    )


class TestAccessPaths:
    def test_pk_point(self, session):
        fill(session)
        assert session.execute("SELECT * FROM CELL WHERE id = 2").one()["cell_key"] == "Portobello"

    def test_pk_in(self, session):
        fill(session)
        rows = session.execute("SELECT * FROM CELL WHERE id IN (1, 4, 99)")
        assert {r["id"] for r in rows} == {1, 4}

    def test_full_scan_filter(self, session):
        fill(session)
        rows = session.execute("SELECT * FROM CELL WHERE leaf = TRUE")
        assert {r["id"] for r in rows} == {1, 2}

    def test_indexed_equality(self, session):
        fill(session)
        session.execute("CREATE INDEX m_idx ON CELL (measure)")
        rows = session.execute("SELECT * FROM CELL WHERE measure = 3")
        assert [r["id"] for r in rows] == [1]

    def test_is_null(self, session):
        fill(session)
        rows = session.execute("SELECT * FROM CELL WHERE measure IS NULL")
        assert {r["id"] for r in rows} == {3, 4}

    def test_range_operators(self, session):
        fill(session)
        rows = session.execute("SELECT * FROM CELL WHERE measure >= 4")
        assert {r["id"] for r in rows} == {2}


class TestJoins:
    def test_two_table_join(self, session):
        fill(session)
        rows = session.execute(
            "SELECT c.cell_key FROM NODE_CHILDREN nc JOIN CELL c ON nc.cell_id = c.id "
            "WHERE nc.node_id = 11 ORDER BY c.cell_key"
        )
        assert [r["c.cell_key"] for r in rows] == ["Fenian St", "Portobello"]

    def test_three_table_join(self, session):
        fill(session)
        rows = session.execute(
            "SELECT n.id, c.cell_key FROM NODE n "
            "JOIN NODE_CHILDREN nc ON nc.node_id = n.id "
            "JOIN CELL c ON c.id = nc.cell_id WHERE n.root = TRUE"
        )
        assert {r["c.cell_key"] for r in rows} == {"Dublin", "Cork"}

    def test_unqualified_unambiguous_column(self, session):
        fill(session)
        rows = session.execute(
            "SELECT cell_key FROM NODE_CHILDREN nc JOIN CELL c ON nc.cell_id = c.id"
        )
        assert len(rows) == 4

    def test_ambiguous_column_rejected(self, session):
        fill(session)
        with pytest.raises(ProgrammingError, match="ambiguous"):
            session.execute("SELECT id FROM NODE n JOIN CELL c ON n.id = c.id")

    def test_join_on_must_touch_joined_table(self, session):
        fill(session)
        with pytest.raises(ProgrammingError):
            session.execute(
                "SELECT * FROM NODE n JOIN CELL c ON n.id = n.id"
            )

    def test_duplicate_alias_rejected(self, session):
        fill(session)
        with pytest.raises(ProgrammingError, match="duplicate"):
            session.execute("SELECT * FROM CELL c JOIN NODE c ON c.id = c.id")


class TestProjectionOrderLimit:
    def test_select_star_merges_rows(self, session):
        fill(session)
        row = session.execute(
            "SELECT * FROM NODE_CHILDREN nc JOIN CELL c ON nc.cell_id = c.id LIMIT 1"
        ).one()
        assert "node_id" in row and "cell_key" in row

    def test_order_by_desc(self, session):
        fill(session)
        rows = session.execute("SELECT id FROM CELL ORDER BY id DESC")
        assert [r["id"] for r in rows] == [4, 3, 2, 1]

    def test_order_by_with_nulls(self, session):
        fill(session)
        rows = session.execute("SELECT measure FROM CELL ORDER BY measure")
        values = [r["measure"] for r in rows]
        assert values == [3, 5, None, None]

    def test_count(self, session):
        fill(session)
        assert session.execute("SELECT COUNT(*) FROM CELL").one()["count"] == 4

    def test_count_with_filter(self, session):
        fill(session)
        result = session.execute("SELECT COUNT(*) FROM CELL WHERE leaf = TRUE")
        assert result.one()["count"] == 2


class TestDML:
    def test_multi_row_insert_rowcount(self, session):
        result = session.execute("INSERT INTO NODE (id, root) VALUES (1, TRUE), (2, FALSE)")
        assert result.rowcount == 2

    def test_duplicate_pk_raises_integrity(self, session):
        fill(session)
        with pytest.raises(IntegrityError):
            session.execute("INSERT INTO CELL (id, leaf) VALUES (1, TRUE)")

    def test_update(self, session):
        fill(session)
        result = session.execute("UPDATE CELL SET measure = 0 WHERE leaf = TRUE")
        assert result.rowcount == 2
        assert session.execute("SELECT measure FROM CELL WHERE id = 1").one()["measure"] == 0

    @pytest.mark.parametrize("assignment, error", [
        ("m = 'zz'", ProgrammingError),
        ("m = 2147483648", ProgrammingError),   # out of INT range
        ("k = 'ninechars'", ProgrammingError),  # over VARCHAR(8)
        ("b = NULL", IntegrityError),
    ])
    def test_failing_update_touches_nothing(self, session, assignment, error):
        # A rejected UPDATE used to raise mid-way, after the matched rows'
        # index entries were gone, or to store NULL in a NOT NULL column.
        session.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, k VARCHAR(8), m INT, b BOOLEAN NOT NULL)"
        )
        session.execute("CREATE INDEX m_idx ON t (m)")
        session.execute(
            "INSERT INTO t (id, k, m, b) VALUES (1, 'a', 5, TRUE), (2, 'b', 6, FALSE), "
            "(3, 'c', 7, TRUE)"
        )
        table = session.engine.database("dwarf").table("t")
        before = scan_rows(table)
        with pytest.raises(error):
            session.execute(f"UPDATE t SET {assignment} WHERE id >= 2")
        assert session.execute("EXPLAIN SELECT id FROM t WHERE m = 6").rows[0]["node"] == "IndexScan"
        assert session.execute("SELECT id FROM t WHERE m = 6").rows == [{"id": 2}]
        assert scan_rows(table) == before
        report = heap_check(table)
        assert report.ok, "\n".join(report.format_lines())

    def test_delete(self, session):
        fill(session)
        assert session.execute("DELETE FROM CELL WHERE leaf = FALSE").rowcount == 2
        assert session.execute("SELECT COUNT(*) FROM CELL").one()["count"] == 2

    def test_truncate(self, session):
        fill(session)
        session.execute("TRUNCATE CELL")
        assert session.execute("SELECT COUNT(*) FROM CELL").one()["count"] == 0

    def test_execute_many_plan(self, session):
        p = session.prepare("INSERT INTO NODE (id, root) VALUES (?, ?)")
        assert session.execute_many(p, ((i, False) for i in range(100, 110))) == 10
        assert session.execute("SELECT COUNT(*) FROM NODE").one()["count"] == 10

    def test_repeated_insert_column_rejected(self, session):
        # used to keep the last value silently; MySQL refuses the statement
        with pytest.raises(ProgrammingError, match="'root' more than once"):
            session.execute("INSERT INTO NODE (id, root, root) VALUES (1, TRUE, FALSE)")
        p = session.prepare("INSERT INTO NODE (id, root, root) VALUES (?, ?, ?)")
        with pytest.raises(ProgrammingError, match="more than once"):
            session.execute_many(p, [(1, True, False)])
        assert session.execute("SELECT COUNT(*) FROM NODE").one()["count"] == 0

    def test_prepared_params(self, session):
        fill(session)
        row = session.execute("SELECT * FROM CELL WHERE id = ?", (2,)).one()
        assert row["cell_key"] == "Portobello"

    def test_too_few_params(self, session):
        with pytest.raises(ProgrammingError, match="bind marker"):
            session.execute("SELECT * FROM CELL WHERE id = ?")


class TestDatabases:
    def test_no_database_selected(self):
        s = SQLEngine().connect()
        with pytest.raises(ProgrammingError, match="database"):
            s.execute("SELECT * FROM t")

    def test_qualified_cross_database(self, session):
        session.execute("CREATE DATABASE other")
        session.execute("CREATE TABLE other.t (id INT PRIMARY KEY)")
        session.execute("INSERT INTO other.t (id) VALUES (1)")
        assert session.execute("SELECT COUNT(*) FROM other.t").one()["count"] == 1

    def test_drop_database(self, session):
        session.execute("CREATE DATABASE victim")
        session.execute("DROP DATABASE victim")
        assert not session.engine.has_database("victim")

    def test_use_switches(self, session):
        session.execute("CREATE DATABASE second")
        session.execute("USE second")
        assert session.database == "second"
