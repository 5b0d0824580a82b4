"""Relational heap invariants: clustered tree, row codec, indexes."""

from repro.analysis.heap_check import heap_check
from repro.query import BoundPredicate
from repro.sqldb.table import SQLColumn, Table
from repro.sqldb.types import VarCharType, parse_type


def make_table(n=60) -> Table:
    table = Table(
        "cell",
        [
            SQLColumn("id", parse_type("int")),
            SQLColumn("name", parse_type("varchar(64)")),
            SQLColumn("measure", parse_type("int")),
            SQLColumn("leaf", parse_type("boolean"), not_null=True),
        ],
        ("id",),
    )
    table.create_index("cell_name", "name")
    for i in range(n):
        table.insert({"id": i, "name": f"m{i % 9}", "measure": i, "leaf": i % 2 == 0})
    return table


def rules_of(report):
    return {violation.rule for violation in report.violations}


class TestCleanTables:
    def test_populated_table_passes(self):
        report = heap_check(make_table())
        assert report.ok, "\n".join(report.format_lines())
        assert report.n_checks > 0

    def test_empty_table_passes(self):
        assert heap_check(make_table(n=0)).ok

    def test_nulls_and_every_type_read_alike_per_column(self):
        types = ("int", "text", "double", "boolean", "bigint", "varchar(8)")
        table = Table(
            "mixed", [SQLColumn(f"c{i}", parse_type(t)) for i, t in enumerate(types)],
            ("c0",),
        )
        values = (None, "x" * 70, float("nan"), True, -(2 ** 40), "é")
        for i in range(80):
            row = {f"c{j}": value for j, value in enumerate(values) if (i >> j) & 1}
            table.insert({**row, "c0": i})
        report = heap_check(table)
        assert report.ok, "\n".join(report.format_lines())

    def test_after_updates_and_deletes_passes(self):
        table = make_table()
        table.update_where(BoundPredicate((("id", "<", 10),)), {"measure": -1})
        table.delete_where(BoundPredicate((("id", "IN", list(range(0, 60, 5))),)))
        report = heap_check(table)
        assert report.ok, "\n".join(report.format_lines())


class TestCorruption:
    def test_corrupt_clustered_row_flagged(self):
        # Satellite check: hand-corrupt a heap page's row payload; the
        # checker must flag it rather than trust the stored bytes.
        table = make_table()
        table._clustered.insert(7, b"\xff\xffnot a row")
        assert "heap.corrupt-row" in rules_of(heap_check(table))

    def test_mislabeled_pk_flagged(self):
        table = make_table()
        row = table.get(3)
        row["id"] = 4  # stored under key 3 but claims to be row 4
        table._clustered.insert(3, table.encode_row(row))
        report = heap_check(table)
        assert "heap.pk-agreement" in rules_of(report)

    def test_wrong_span_flagged(self, monkeypatch):
        # One byte short for every VARCHAR: the columns stored after it
        # are read at the wrong offset; the full-row decode is unaffected.
        monkeypatch.setattr(VarCharType, "span", lambda self, buffer, offset: offset + 1)
        assert rules_of(heap_check(make_table())) == {"heap.column-decode"}

    def test_stale_index_entry_flagged(self):
        table = make_table()
        table._secondary["name"].insert(("zz", 999))
        assert "heap.index-agreement" in rules_of(heap_check(table))

    def test_missing_index_entry_flagged(self):
        table = make_table()
        table._secondary["name"].delete(("m1", 1))
        assert "heap.index-agreement" in rules_of(heap_check(table))
