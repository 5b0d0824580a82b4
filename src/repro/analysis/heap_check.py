"""Runtime invariant checker for relational (sqldb) tables.

The "heap" of the MySQL-style engine is a clustered B-tree: rows live in
the leaves keyed by primary key (DESIGN.md "SQL engine", paper §5.1).
Beyond delegating the page-level structure to
:func:`~repro.analysis.btree_check.btree_check`, this checker verifies
the relational layer's own promises:

* **Row accounting** — ``len(table)`` equals the clustered tree's entry
  count (the dirty-page flush heuristic and ``size_bytes`` both scale
  with it).
* **Key faithfulness** — every stored row decodes to a primary key equal
  to the clustered key it is filed under.
* **Codec round-trip** — decoding then re-encoding a stored row
  reproduces the stored bytes (null bitmap included).
* **Constraint integrity** — NOT NULL columns hold values in every
  stored row.
* **Column reads** — every column of every leaf page read through
  :meth:`~repro.sqldb.table.Table.decode_column`, the page decoder
  queries use (rows grouped by null bitmap, each bitmap's compiled row
  shape, length-prefix ends shared across columns, ``struct``
  unpacking), equals what the reference row decode :func:`decode_row`
  gives, NULLs included.
* **Secondary-index ↔ heap agreement** — each secondary tree holds
  exactly the ``(value, pk)`` pairs derivable from the clustered rows
  (a NULL or NaN value has none: :func:`~repro.storage.values.indexable`).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.btree_check import btree_check
from repro.analysis.violations import CheckReport
from repro.sqldb.table import Table
from repro.storage.values import indexable

_CHECKER = "heap"


def decode_row(table: Table, encoded: bytes) -> Dict[str, object]:
    """The reference decode of one stored row (null bitmap, then the
    present cells), that the checkers and tests hold column reads to."""
    offset = (len(table.columns) + 7) // 8
    row: Dict[str, object] = dict.fromkeys(table.column_names)
    for index, column in enumerate(table.columns):
        if encoded[index >> 3] & (1 << (index & 7)):
            row[column.name], offset = column.sql_type.decode(encoded, offset)
    return row


def heap_check(table: Table) -> CheckReport:
    """Check every structural invariant of one sqldb table; never raises."""
    report = CheckReport(f"heap_check[{table.name}]")
    report.merge(btree_check(table._clustered, name=f"{table.name}/clustered"))

    expected: Dict[str, Set[Tuple[object, object]]] = {
        column: set() for column in table._secondary
    }
    not_null = [
        column for column in table.columns
        if column.not_null and column.name not in table.primary_key
    ]
    n_rows = 0
    for keys, values in table._clustered.leaves():
        decoded: List[Tuple[object, bytes, Dict[str, object]]] = []
        for pk, encoded in zip(keys, values):
            n_rows += 1
            row = _check_row(report, table, pk, encoded, not_null)
            if row is not None:
                decoded.append((pk, encoded, row))
                for column_name in expected:
                    value = row.get(column_name)
                    if indexable(value):
                        expected[column_name].add((value, pk))
        _check_columns(report, table, decoded)

    report.check(
        n_rows == len(table), _CHECKER, "heap.row-count", table.name,
        f"table reports {len(table)} rows, clustered tree holds {n_rows}",
    )

    for column_name, tree in table._secondary.items():
        location = f"{table.name}/index[{column_name}]"
        report.merge(btree_check(tree, name=location))
        actual = set(tree.keys())
        missing = expected[column_name] - actual
        extra = actual - expected[column_name]
        report.check(
            not missing, _CHECKER, "heap.index-agreement", location,
            f"{len(missing)} clustered row(s) missing from the index, e.g. "
            f"{_example(missing)}",
        )
        report.check(
            not extra, _CHECKER, "heap.index-agreement", location,
            f"{len(extra)} index entrie(s) with no matching clustered row, "
            f"e.g. {_example(extra)}",
        )
    return report


def _check_row(report: CheckReport, table: Table, pk, encoded: bytes, not_null):
    """The per-row rules; returns the decoded row, or None when the
    stored bytes do not decode."""
    location = f"{table.name}[{pk!r}]"
    try:
        row = decode_row(table, encoded)
    except Exception as exc:
        report.add(
            _CHECKER, "heap.corrupt-row", location,
            f"stored row failed to decode: {type(exc).__name__}: {exc}",
        )
        return None
    try:
        derived = table._pk_of(row)
    except Exception:
        derived = None
    report.check(
        derived == pk, _CHECKER, "heap.pk-agreement", location,
        f"row decodes to primary key {derived!r}, filed under {pk!r}",
    )
    report.check(
        table.encode_row(row) == encoded, _CHECKER, "heap.row-codec",
        location,
        "row does not re-encode to its stored bytes (codec round-trip)",
    )
    for column in not_null:
        report.check(
            row.get(column.name) is not None, _CHECKER, "heap.not-null",
            location, f"NOT NULL column {column.name!r} stores NULL",
        )
    return row


def _check_columns(report: CheckReport, table: Table, decoded) -> None:
    """``heap.column-decode`` over one leaf page's decodable rows: each
    column read on its own must give the full-row decode's values."""
    if not decoded:
        return
    encoded_rows = [encoded for _, encoded, _ in decoded]
    for name in table.column_names:
        location = f"{table.name}.{name}"
        try:
            vector = table.decode_column(encoded_rows, name)
        except Exception as exc:
            report.add(
                _CHECKER, "heap.column-decode", location,
                f"column read failed on the page of {decoded[0][0]!r}: "
                f"{type(exc).__name__}: {exc}",
            )
            continue
        wrong = [
            (pk, got, row[name])
            for (pk, _, row), got in zip(decoded, vector)
            if not _same(got, row[name])
        ]
        report.check(
            not wrong, _CHECKER, "heap.column-decode", location,
            f"{len(wrong)} row(s) read differently on their own, e.g. "
            f"(pk, column read, row decode) = {wrong[:1]!r}",
        )


def _same(a, b) -> bool:
    """Equal values of one type; a NaN equals a NaN."""
    return type(a) is type(b) and (a == b or (a != a and b != b))


def _example(entries: Set) -> str:
    return repr(next(iter(entries))) if entries else "-"
