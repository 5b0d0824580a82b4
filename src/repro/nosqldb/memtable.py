"""Memtables: the in-memory write buffer of a column family.

Writes land here first (after the commit log) already encoded to their
storage representation, so insertion time includes the real serialisation
cost.  When the memtable exceeds its flush threshold the column family
freezes it into an SSTable.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: Per-entry bookkeeping overhead charged against the flush threshold.
ENTRY_OVERHEAD = 32

#: ``_lo`` / ``_hi`` once two keys failed to compare: :meth:`Memtable.key_range`
#: then takes min/max over every key.
_INCOMPARABLE = object()


class Run(NamedTuple):
    """One proven-fresh chunk of a bulk write, as the write loop built
    it — references only, nothing copied.  Row ``i`` is ``keys[i]``
    stored as ``rows[i]``; its cells are ``cells[j][i]`` (None: no cell)
    for the statement columns at schema ``positions[j]``, all stamped
    with write-clock tick ``tick + i``.  ``typed[j]`` is column ``j``'s
    bound values where each is exactly of its type's ``value_types``
    (never for a double or a set), else None."""

    keys: Sequence
    rows: Sequence[bytes]
    positions: Tuple[int, ...]
    cells: Sequence[Sequence[Optional[bytes]]]
    tick: int
    typed: Sequence[Optional[Sequence]]


class Memtable:
    """Sorted-on-demand map of primary key -> encoded row.

    The lowest and highest key holding a row or a tombstone are kept as
    keys arrive, so :meth:`key_range` costs O(1) — scans and the write
    path's freshness proof ask it of every layer.  A memtable never
    forgets a key (a delete leaves a tombstone), so the range only grows.

    Beside the rows, a memtable filled only by proven-fresh chunks keeps
    those chunks' :class:`Run` slices, so a flush can take the encoded
    cell columns as they are (:meth:`column_runs`).  Any other mutation
    drops them for the memtable's life (:meth:`drop_runs`).
    """

    __slots__ = ("_rows", "_bytes", "_tombstones", "_lo", "_hi", "_runs", "_run_rows")

    def __init__(self) -> None:
        self._rows: Dict[object, bytes] = {}
        self._tombstones: set = set()
        self._bytes = 0
        self._lo = self._hi = None  # None while empty
        self._runs: Optional[List[Tuple[Run, int, int]]] = []
        self._run_rows = 0

    def put(self, key, row: bytes) -> None:
        rows = self._rows
        previous = rows.get(key)
        if previous is None:
            self._bytes += ENTRY_OVERHEAD + len(row)
            self._widen(key)
        else:
            self._bytes += len(row) - len(previous)
        rows[key] = row
        if self._tombstones:
            self._tombstones.discard(key)

    def add_run(self, run: Run, start: int, stop: int) -> None:
        """Record that rows ``start:stop`` of ``run`` — already put, in
        key order, above every key put before them — landed here."""
        if self._runs is not None:
            self._runs.append((run, start, stop))
            self._run_rows += stop - start

    def drop_runs(self) -> None:
        """Forget the runs: a mutation they do not describe happened (or
        the flush that used them is done)."""
        self._runs = None

    def column_runs(self) -> Optional[List[Tuple[Run, int, int]]]:
        """The runs, when they hold every row in key order and nothing
        was deleted — else None, and a flush re-splits the rows."""
        runs = self._runs
        if runs and self._run_rows == len(self._rows) and not self._tombstones:
            return runs
        return None

    def delete(self, key) -> None:
        self._runs = None
        previous = self._rows.pop(key, None)
        if previous is not None:
            self._bytes -= len(previous)
        self._tombstones.add(key)
        self._widen(key)

    def _widen(self, key) -> None:
        """Stretch the key range over ``key``."""
        lo = self._lo
        if lo is _INCOMPARABLE:
            return
        try:
            if lo is None:
                self._lo = self._hi = key
            elif key > self._hi:
                self._hi = key
            elif key < lo:
                self._lo = key
        except TypeError:  # mixed key types: no order to keep
            self._lo = self._hi = _INCOMPARABLE

    def get(self, key) -> Optional[bytes]:
        return self._rows.get(key)

    def is_deleted(self, key) -> bool:
        return key in self._tombstones

    def __contains__(self, key) -> bool:
        return key in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def approximate_bytes(self) -> int:
        return self._bytes

    @property
    def tombstones(self) -> frozenset:
        return frozenset(self._tombstones)

    def key_range(self) -> Optional[Tuple[object, object]]:
        """``(lowest, highest)`` key this memtable holds a row or a
        tombstone for, or None when it holds neither — what a scan
        compares to decide whether LSM layers can shadow each other, and
        the write path to prove a batch's keys new.  Once two keys failed
        to compare it is min/max over every key again, which may raise
        TypeError."""
        if self._lo is _INCOMPARABLE:
            keys = [*self._rows, *self._tombstones]
            return min(keys), max(keys)
        return None if self._lo is None else (self._lo, self._hi)

    def sorted_items(self) -> List[Tuple[object, bytes]]:
        return sorted(self._rows.items(), key=lambda item: item[0])

    def __iter__(self) -> Iterator[Tuple[object, bytes]]:
        return iter(self._rows.items())
