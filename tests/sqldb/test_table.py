"""Relational table storage: constraints, indexes, size accounting."""

import pytest

from repro.query import BoundPredicate
from repro.sqldb.errors import IntegrityError, ProgrammingError
from repro.sqldb.table import SQLColumn, Table
from repro.sqldb.types import parse_type
from tests.conftest import scan_rows


def where(*conditions):
    """A bound WHERE clause: ``(column, op, value)`` conditions."""
    return BoundPredicate(conditions)


def lookup_indexed(table, column, value):
    """The rows whose indexed ``column`` equals ``value``."""
    return [row for batch in table.get_batches((value,), index=column) for row in batch.rows()]


def make_table(primary_key=("id",)):
    return Table(
        "cell",
        [
            SQLColumn("id", parse_type("int")),
            SQLColumn("name", parse_type("varchar(64)")),
            SQLColumn("measure", parse_type("int")),
            SQLColumn("leaf", parse_type("boolean"), not_null=True),
        ],
        primary_key,
    )


class TestSchemaValidation:
    def test_pk_must_exist(self):
        with pytest.raises(ProgrammingError):
            make_table(primary_key=("nope",))

    def test_pk_required(self):
        with pytest.raises(ProgrammingError):
            make_table(primary_key=())

    def test_duplicate_columns(self):
        with pytest.raises(ProgrammingError):
            Table("t", [SQLColumn("a", parse_type("int"))] * 2, ("a",))


class TestInsert:
    def test_insert_get(self):
        t = make_table()
        t.insert({"id": 1, "name": "Fenian St", "measure": 3, "leaf": True})
        assert t.get(1)["name"] == "Fenian St"

    def test_duplicate_pk_rejected(self):
        t = make_table()
        t.insert({"id": 1, "leaf": True})
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            t.insert({"id": 1, "leaf": False})

    def test_null_pk_rejected(self):
        with pytest.raises(IntegrityError):
            make_table().insert({"name": "x", "leaf": True})

    def test_not_null_enforced(self):
        with pytest.raises(IntegrityError, match="NOT NULL"):
            make_table().insert({"id": 1})

    def test_unknown_column_rejected(self):
        with pytest.raises(ProgrammingError):
            make_table().insert({"id": 1, "leaf": True, "bogus": 1})

    def test_type_checked(self):
        with pytest.raises(ProgrammingError):
            make_table().insert({"id": "one", "leaf": True})

    def test_composite_primary_key(self):
        t = Table(
            "node_children",
            [SQLColumn("node_id", parse_type("int")), SQLColumn("cell_id", parse_type("int"))],
            ("node_id", "cell_id"),
        )
        t.insert({"node_id": 1, "cell_id": 2})
        t.insert({"node_id": 1, "cell_id": 3})
        assert t.get((1, 2)) is not None
        with pytest.raises(IntegrityError):
            t.insert({"node_id": 1, "cell_id": 2})


class TestScanUpdateDelete:
    def test_scan_in_pk_order(self):
        t = make_table()
        for i in (3, 1, 2):
            t.insert({"id": i, "leaf": True})
        assert [row["id"] for row in scan_rows(t)] == [1, 2, 3]

    def test_update_where(self):
        t = make_table()
        for i in range(5):
            t.insert({"id": i, "measure": i, "leaf": True})
        touched = t.update_where(where(("measure", ">=", 3)), {"measure": 0})
        assert touched == 2
        assert sum(r["measure"] for r in scan_rows(t)) == 0 + 1 + 2

    def test_update_pk_rejected(self):
        t = make_table()
        t.insert({"id": 1, "leaf": True})
        with pytest.raises(ProgrammingError):
            t.update_where(None, {"id": 9})

    def test_delete_where(self):
        t = make_table()
        for i in range(6):
            t.insert({"id": i, "leaf": i % 2 == 0})
        assert t.delete_where(where(("leaf", "=", True))) == 3
        assert len(t) == 3

    def test_truncate(self):
        t = make_table()
        t.insert({"id": 1, "leaf": True})
        t.truncate()
        assert len(t) == 0
        assert t.get(1) is None


class TestSecondaryIndexes:
    def test_lookup(self):
        t = make_table()
        t.create_index("m_idx", "measure")
        for i in range(12):
            t.insert({"id": i, "measure": i % 3, "leaf": True})
        assert {r["id"] for r in lookup_indexed(t, "measure", 1)} == {1, 4, 7, 10}

    def test_backfill(self):
        t = make_table()
        for i in range(6):
            t.insert({"id": i, "measure": i % 2, "leaf": True})
        t.create_index("m_idx", "measure")
        assert len(lookup_indexed(t, "measure", 0)) == 3

    def test_update_maintains_index(self):
        t = make_table()
        t.create_index("m_idx", "measure")
        t.insert({"id": 1, "measure": 5, "leaf": True})
        t.update_where(where(("id", "=", 1)), {"measure": 6})
        assert lookup_indexed(t, "measure", 5) == []
        assert lookup_indexed(t, "measure", 6)[0]["id"] == 1

    def test_delete_maintains_index(self):
        t = make_table()
        t.create_index("m_idx", "measure")
        t.insert({"id": 1, "measure": 5, "leaf": True})
        t.delete_where(None)
        assert lookup_indexed(t, "measure", 5) == []

    def test_duplicate_index_rejected(self):
        t = make_table()
        t.create_index("m", "measure")
        with pytest.raises(ProgrammingError):
            t.create_index("m2", "measure")


class TestSizeAccounting:
    def test_row_header_overhead_charged(self):
        t = make_table()
        for i in range(100):
            t.insert({"id": i, "leaf": True})
        from repro.sqldb.table import ROW_HEADER_BYTES

        assert t.size_bytes > 100 * ROW_HEADER_BYTES

    def test_index_adds_size(self):
        plain = make_table()
        indexed = make_table()
        indexed.create_index("m", "measure")
        for i in range(200):
            plain.insert({"id": i, "measure": i, "leaf": True})
            indexed.insert({"id": i, "measure": i, "leaf": True})
        assert indexed.size_bytes > plain.size_bytes

    def test_redo_log_receives_mutations(self):
        redo = bytearray()
        t = Table(
            "t", [SQLColumn("id", parse_type("int"))], ("id",), redo_log=redo
        )
        t.insert({"id": 1})
        assert len(redo) > 0
