"""Column batches: what the kernel's operators hand each other.

A batch is ``n`` rows held column-wise plus a *selection vector*:
``sel`` lists, in ascending order, the positions still part of the
result, or is ``None`` while every row is.  Operators never copy data
to drop a row — a scan's pushed predicate, a ``Filter``, LSM shadowing
and ``Limit`` all just narrow ``sel`` — and nobody builds a row dict
until :meth:`Batch.rows` is called, which happens once per statement at
the ``ResultSet`` boundary (or inside the two pipeline breakers, ``Sort``
and ``HashJoin``) and only for the columns the statement returns.

Two backings share the contract:

* :class:`VectorBatch` — rows addressed a column at a time:
  ``column_of(name)`` yields a decoded columnar SSTable block's memoized
  typed vector, or decodes one column of a B-tree leaf page's, a
  memtable's or a relational fetch's encoded rows on first touch, or
  reads one off the NoSQL row cache's decoded rows, so a predicate or an
  aggregate touches only the columns it reads.  A fetch (point,
  multi-get, index) that found its keys in a columnar block gets a
  :class:`FetchedBatch`: the same block with ``sel`` set to the keys'
  positions, whose columns are decoded at the selected positions only.
* :class:`RowBatch` — rows that already exist as dicts: the outputs of
  the operators that build rows (``HashJoin``, ``Aggregate``, ``Sort``).

``column(name)`` is addressed by position (index it with ``sel``);
``values(name)`` is the same column gathered down to the selected rows.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence


def gather(vector: Sequence, sel: Optional[List[int]]) -> Sequence:
    """``vector`` restricted to the positions in ``sel`` (None = all)."""
    if sel is None:
        return vector
    if len(sel) > 1:
        return itemgetter(*sel)(vector)
    return [vector[i] for i in sel]


class Batch:
    """The shared half of both backings: selection, projection, exits."""

    __slots__ = ("n", "sel", "names", "labels")

    def __init__(self, n: int) -> None:
        self.n = n
        self.sel: Optional[List[int]] = None
        # What rows() materializes by default: source column names and
        # the keys they get (None = every column under its own name).
        self.names: Optional[Sequence[str]] = None
        self.labels: Optional[Sequence[str]] = None

    def count(self) -> int:
        """How many rows are still selected."""
        return self.n if self.sel is None else len(self.sel)

    def column(self, name: str) -> Sequence:
        """Column ``name`` for all ``n`` positions (None where absent)."""
        raise NotImplementedError

    def values(self, name: str) -> Sequence:
        """Column ``name`` of the selected rows only, in order."""
        return gather(self.column(name), self.sel)

    def rows(self, names: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
        """The selected rows as dicts — the one place rows get built.

        ``names`` overrides the batch's projection; without either,
        every column is emitted under its own name.
        """
        raise NotImplementedError

    def _output(self, names: Optional[Sequence[str]]):
        """``(names, labels)`` that :meth:`rows` emits; ``(None, None)``
        stands for every column under its own name."""
        if names is not None:
            return names, names
        return self.names, self.labels


class VectorBatch(Batch):
    """Rows whose columns ``column_of(name)`` yields: a decoded columnar
    block's vectors, or a B-tree leaf page's columns decoded on demand."""

    __slots__ = ("_column_of", "_all_names")

    def __init__(self, n: int, column_of: Callable[[str], Sequence],
                 all_names: Sequence[str]) -> None:
        # Spelled out, not super().__init__: one of these is built per
        # B-tree leaf page a scan visits.
        self.n = n
        self.sel = self.names = self.labels = None
        self._column_of = column_of
        self._all_names = all_names

    def column(self, name: str) -> Sequence:
        return self._column_of(name)

    def rows(self, names: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
        names, labels = self._output(names)
        if names is None:
            names = labels = self._all_names
        if self.sel is not None and not self.sel:
            return []
        columns = [self.values(name) for name in names]
        return [dict(zip(labels, row)) for row in zip(*columns)]


class FetchedBatch(VectorBatch):
    """The rows a fetch found — in a decoded columnar block, or cached
    decoded — selected by position.  ``values_at(name, positions)``
    reads a column at the given positions only, so what a statement
    reads of a fetched row is all that is ever decoded of the block."""

    __slots__ = ("_values_at",)

    def __init__(self, n: int, column_of: Callable[[str], Sequence],
                 values_at: Callable[[str, Sequence[int]], Sequence],
                 all_names: Sequence[str], sel: Optional[List[int]]) -> None:
        super().__init__(n, column_of, all_names)
        self._values_at = values_at
        self.sel = sel

    def values(self, name: str) -> Sequence:
        if self.sel is None:
            return self._column_of(name)
        return self._values_at(name, self.sel)

    def column(self, name: str) -> Sequence:
        # A selection only ever narrows: a vector filled in at the
        # selected positions is all any operator downstream will read.
        sel = self.sel
        if sel is None:
            return self._column_of(name)
        vector = [None] * self.n
        for i, value in zip(sel, self._values_at(name, sel)):
            vector[i] = value
        return vector


class RowBatch(Batch):
    """Rows held as dicts."""

    __slots__ = ("_rows",)

    def __init__(self, rows: List[Dict[str, object]]) -> None:
        super().__init__(len(rows))
        self._rows = rows

    def column(self, name: str) -> Sequence:
        return [row[name] for row in self._rows]

    def rows(self, names: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
        rows = self._rows
        if self.sel is not None:
            rows = [rows[i] for i in self.sel]
        names, labels = self._output(names)
        if names is None:
            return rows
        if len(names) == 1:
            name, label = names[0], labels[0]
            return [{label: row[name]} for row in rows]
        pick = itemgetter(*names)
        return [dict(zip(labels, pick(row))) for row in rows]
