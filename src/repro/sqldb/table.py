"""Relational tables: clustered B-tree storage with InnoDB-style costs.

A table is a clustered index: rows live in the leaves of a B-tree keyed
by the (possibly composite) primary key, exactly as InnoDB stores them.
Each stored row is charged :data:`ROW_HEADER_BYTES` of header (record
header, transaction id, roll pointer) and pages are assumed
:data:`FILL_FACTOR` full — the per-row overhead that makes the
relationship tables of the MySQL-DWARF schema expensive (paper §5.1).
"""

from __future__ import annotations

import struct
from itertools import repeat
from operator import add, itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.query.batch import Batch, VectorBatch, gather
from repro.query.session import reject_repeated_columns
from repro.sqldb.errors import IntegrityError, ProgrammingError
from repro.sqldb.types import SQLType
from repro.storage.btree import BTree
from repro.storage.values import indexable
from repro.telemetry import get_registry

#: InnoDB record overhead: 5 B record header + 6 B DB_TRX_ID + 7 B DB_ROLL_PTR.
ROW_HEADER_BYTES = 18

#: Typical page fill after sequential bulk load (InnoDB leaves 1/16 free).
FILL_FACTOR = 15 / 16

#: Per-mutation redo log record header (LSN, type, table id, lengths).
REDO_HEADER_BYTES = 24
_REDO_HEADER = b"\x00" * REDO_HEADER_BYTES

#: Insert undo record: type + table id + primary key reference.
_UNDO_RECORD = b"\x00" * 20

#: What lies between two rows' images in the redo log.
_REDO_SEPARATOR = _UNDO_RECORD + _REDO_HEADER

#: Row-based binary log event header (timestamp, server id, event size, ...).
_BINLOG_HEADER = b"\x00" * 19

#: Dirty-page volume that triggers a buffer-pool flush during bulk loads.
DIRTY_FLUSH_BYTES = 2 * 1024 * 1024

_REGISTRY = get_registry()
_M_ROWS = _REGISTRY.counter(
    "sqldb_rows_written_total", "rows inserted", labels=("table",)
)
_M_REDO_BYTES = _REGISTRY.counter(
    "sqldb_redo_bytes_total", "redo and undo log bytes appended by inserts", labels=("table",)
)
_M_BINLOG_BYTES = _REGISTRY.counter(
    "sqldb_binlog_bytes_total", "binary log bytes appended by inserts", labels=("table",)
)
_M_INDEX_ENTRIES = _REGISTRY.counter(
    "sqldb_index_entries_total", "secondary-index entries written by inserts",
    labels=("table",),
)


def _first_none(values: Sequence, stop: int) -> int:
    """Position of the first None among ``values[:stop]``, else ``stop``."""
    try:
        return values.index(None, 0, stop)
    except ValueError:
        return stop


class _Shape:
    """Where the columns of a row with one null bitmap sit, compiled
    once per bitmap a table meets.

    ``place[name]`` is None for a column the bitmap marks NULL, else
    ``(anchor, after, sql_type, unpack, padded)``: the value starts
    ``after`` bytes past the end of the variable-width column
    ``anchor`` — past the row's start when no variable-width column
    precedes it (``anchor`` None); ``unpack`` is a fixed-width value's
    ``Struct.unpack_from``, None for text.  When every present column
    is fixed width, each row of the shape is ``size`` bytes, and
    ``padded`` is a ``Struct`` over a whole row that unpacks that column
    alone; otherwise ``size`` and every ``padded`` are None.
    """

    __slots__ = ("place", "size")

    def __init__(self, columns: Sequence["SQLColumn"], bitmap: bytes) -> None:
        anchor, after = None, len(bitmap)
        present = []
        self.place: Dict[str, Optional[tuple]] = {}
        for index, column in enumerate(columns):
            self.place[column.name] = None
            if bitmap[index >> 3] & (1 << (index & 7)):
                present.append((column.name, anchor, after, column.sql_type))
                if column.sql_type.code is None:
                    anchor, after = column.name, 0
                else:
                    after += column.sql_type.width
        self.size = after if anchor is None else None
        for name, anchor, after, sql_type in present:
            code = sql_type.code
            unpack = padded = None
            if code is not None:
                unpack = struct.Struct("<" + code).unpack_from
                if self.size is not None:
                    tail = self.size - after - sql_type.width
                    padded = struct.Struct(f"<{after}x{code}{tail}x")
            self.place[name] = (anchor, after, sql_type, unpack, padded)


def _ends(shape: _Shape, rows: Sequence[bytes], ends: Dict[str, List[int]], name: str) -> List[int]:
    """Where variable-width column ``name`` ends in each of ``rows`` (of
    ``shape``), found once and kept in ``ends`` for every column read
    after it."""
    found = ends.get(name)
    if found is None:
        anchor, after, sql_type, _, _ = shape.place[name]
        starts = repeat(after) if anchor is None else map(
            add, _ends(shape, rows, ends, anchor), repeat(after))
        found = ends[name] = list(map(sql_type.span, rows, starts))
    return found


def _texts(rows: Sequence[bytes], starts, decode) -> Tuple[List[str], List[int]]:
    """The text at ``starts`` in each of ``rows``, and where each ends:
    a one-byte length head is read inline, a longer one by ``decode``."""
    values: List[str] = []
    ends: List[int] = []
    for row, start in zip(rows, starts):
        head = row[start]
        if head < 0x80:  # zigzag: a length below 64 is its own byte, << 1
            end = start + 1 + (head >> 1)
            values.append(row[start + 1:end].decode("utf-8"))
        else:
            value, end = decode(row, start)
            values.append(value)
        ends.append(end)
    return values, ends


class PageBatch(VectorBatch):
    """A page's encoded rows — a B-tree leaf's, or the rows a fetch
    found — as a column batch: :meth:`column` decodes a column on first
    touch (:meth:`decode`) and keeps it, so ``COUNT(*)`` decodes nothing
    and a statement decodes only the columns it names.

    The first decode groups the rows by null bitmap into runs (one, as
    a rule), each with its table's compiled :class:`_Shape`.  Then a
    variable-width column's end offsets are found once per run and
    shared by every column read after it; a fixed-width column is one
    ``unpack_from`` per row, or one ``iter_unpack`` over the run's
    joined rows when every present column of its shape is fixed width.
    """

    __slots__ = ("table", "encoded", "keys", "_runs", "_decoded")

    def __init__(self, table: "Table", rows: Sequence[bytes], keys: Optional[Sequence] = None) -> None:
        # Spelled out, as VectorBatch's is: one is built per page read.
        self.n = len(rows)
        self.sel = self.names = self.labels = None
        self._all_names = table._names
        self.table = table
        self.encoded = rows
        # The rows' clustered keys, as stored (a leaf page's; else None).
        self.keys = keys
        self._runs: Optional[List[tuple]] = None
        self._decoded: Dict[str, List[object]] = {}

    def column(self, name: str) -> List[object]:
        vector = self._decoded.get(name)
        if vector is None:
            vector = self._decoded[name] = self.decode(name)
        return vector

    def decode(self, name: str) -> List[object]:
        """Column ``name`` of the page's rows, None where NULL.  Raises
        KeyError for a column the table lacks."""
        out = None
        for shape, rows, at, ends in self._runs or self._group():
            entry = shape.place[name]
            if entry is None:
                values = [None] * len(rows)
            else:
                anchor, after, sql_type, unpack, padded = entry
                if padded is not None:
                    values = [value for (value,) in padded.iter_unpack(b"".join(rows))]
                elif unpack is None:
                    starts = repeat(after) if anchor is None else map(
                        add, _ends(shape, rows, ends, anchor), repeat(after))
                    values, ends[name] = _texts(rows, starts, sql_type.decode)
                elif anchor is None:
                    values = [unpack(row, after)[0] for row in rows]
                else:
                    values = [unpack(row, end + after)[0]
                              for row, end in zip(rows, _ends(shape, rows, ends, anchor))]
            if at is None:
                return values
            if out is None:
                out = [None] * self.n
            for position, value in zip(at, values):
                out[position] = value
        return out

    def _group(self) -> List[tuple]:
        """The page's runs, ``(shape, rows, positions, ends)`` each, in
        one pass over the rows; ``positions`` is None for a run that is
        the whole page."""
        rows, table = self.encoded, self.table
        heads = list(map(table._bitmap_of, rows))
        first = heads[0] if heads else bytes(table._bitmap_bytes)  # no rows: all NULL
        if heads.count(first) == len(heads):
            runs = [(table._shapes.get(first) or table._shape(first), rows, None, {})]
        else:
            at: Dict[bytes, List[int]] = {}
            for position, head in enumerate(heads):
                at.setdefault(head, []).append(position)
            runs = [
                (table._shape(head), [rows[i] for i in positions], positions, {})
                for head, positions in at.items()
            ]
        self._runs = runs
        return runs


class SQLColumn:
    __slots__ = ("name", "sql_type", "not_null")

    def __init__(self, name: str, sql_type: SQLType, not_null: bool = False) -> None:
        self.name = name
        self.sql_type = sql_type
        self.not_null = not_null

    def __repr__(self) -> str:
        suffix = " NOT NULL" if self.not_null else ""
        return f"SQLColumn({self.name} {self.sql_type.name}{suffix})"


class Table:
    """One relational table with a clustered primary key."""

    def __init__(
        self,
        name: str,
        columns: Sequence[SQLColumn],
        primary_key: Sequence[str],
        redo_log: Optional[bytearray] = None,
        binlog: Optional[bytearray] = None,
    ) -> None:
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ProgrammingError(f"duplicate column in table {name!r}")
        if not primary_key:
            raise ProgrammingError(f"table {name!r} needs a primary key")
        for part in primary_key:
            if part not in names:
                raise ProgrammingError(f"primary key column {part!r} not in table {name!r}")
        self.name = name
        self.columns: Tuple[SQLColumn, ...] = tuple(columns)
        self.primary_key: Tuple[str, ...] = tuple(primary_key)
        self._by_name = {c.name: c for c in self.columns}
        self._names = tuple(names)
        self._pk_positions = [names.index(part) for part in self.primary_key]
        self._bitmap_bytes = (len(columns) + 7) // 8
        self._bitmap_of = itemgetter(slice(self._bitmap_bytes))
        self._shapes: Dict[bytes, _Shape] = {}
        self._clustered = BTree()
        self._secondary: Dict[str, BTree] = {}
        self._index_names: Dict[str, str] = {}
        self._redo_log = redo_log
        self._binlog = binlog
        self._m_rows = _M_ROWS.labels(name)
        self._m_redo_bytes = _M_REDO_BYTES.labels(name)
        self._m_binlog_bytes = _M_BINLOG_BYTES.labels(name)
        self._m_index_entries = _M_INDEX_ENTRIES.labels(name)
        self._n_rows = 0
        self._dirty_bytes = 0
        # Monotonic mutation counter; readers snapshot it to build
        # version-guarded caches (e.g. the MySQL-Min reconstruction
        # cache in repro.mapping.stored_query).
        self._version = 0

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------
    def column(self, name: str) -> SQLColumn:
        """Raises ProgrammingError when the table has no such column."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ProgrammingError(f"table {self.name!r} has no column {name!r}") from None

    @property
    def column_names(self) -> Tuple[str, ...]:
        return self._names

    def create_index(self, index_name: str, column: str) -> None:
        """Raises ProgrammingError for unknown columns or duplicate indexes."""
        self.column(column)
        if column in self._secondary:
            raise ProgrammingError(f"index on {self.name}.{column} already exists")
        tree = BTree()
        for batch in self.scan_batches():
            for value, key in zip(batch.values(column), batch.keys):
                if indexable(value):
                    tree.insert((value, key))
        self._secondary[column] = tree
        self._index_names[column] = index_name

    def has_index(self, column: str) -> bool:
        return column in self._secondary

    @property
    def indexed_columns(self) -> Tuple[str, ...]:
        """Names of the columns carrying a secondary index.

        The query planner snapshots this as part of a cached plan's
        validity signature: a CREATE INDEX changes it and invalidates
        plans compiled before the index existed.
        """
        return tuple(self._secondary)

    # ------------------------------------------------------------------
    # row codec
    # ------------------------------------------------------------------
    def encode_row(self, row: Dict[str, object]) -> bytes:
        n_cols = len(self.columns)
        bitmap = bytearray((n_cols + 7) // 8)
        parts: List[bytes] = []
        for index, column in enumerate(self.columns):
            value = row.get(column.name)
            if value is None:
                continue
            bitmap[index >> 3] |= 1 << (index & 7)
            parts.append(column.sql_type.encode(value))
        return bytes(bitmap) + b"".join(parts)

    def _shape(self, bitmap: bytes) -> "_Shape":
        """The row shape of ``bitmap``, compiled on first sight: where
        each column sits in a row with those null bits."""
        shape = self._shapes.get(bitmap)
        if shape is None:
            shape = self._shapes[bitmap] = _Shape(self.columns, bitmap)
        return shape

    def decode_column(self, rows: Sequence[bytes], name: str) -> List[object]:
        """Column ``name`` of each encoded row, None where NULL — that
        column decoded and no other, by the page decoder
        (:meth:`PageBatch.decode`).  Raises KeyError for a column the
        table lacks."""
        return PageBatch(self, rows).decode(name)

    def _pk_of(self, row: Dict[str, object]):
        parts = []
        for name in self.primary_key:
            value = row.get(name)
            if value is None:
                raise IntegrityError(f"primary key column {name!r} cannot be NULL")
            parts.append(value)
        return parts[0] if len(parts) == 1 else tuple(parts)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, row: Dict[str, object]) -> None:
        """Insert one row: a one-row :meth:`insert_columns`.

        Raises ProgrammingError for unknown columns and IntegrityError for
        NOT NULL or duplicate-primary-key violations.
        """
        names = list(row) or [self.primary_key[0]]  # an empty row: a NULL key
        self.insert_columns(names, [(row.get(name),) for name in names])

    def insert_columns(self, names: Sequence[str], columns: Sequence[Sequence]) -> int:
        """The one write loop: rows given column-wise — ``columns[j][i]``
        is row ``i``'s value of column ``names[j]``, None for NULL, and a
        column ``names`` leaves out is NULL.  Returns the count written.

        Each column is checked and encoded whole, its type resolved once
        (:meth:`SQLType.encode_column`), NOT NULL with one membership
        test, and each row assembled from the cells as :meth:`encode_row`
        builds it.  Then per row, in row order: the clustered insert,
        whose one descent refuses a duplicate key; the secondary-index
        entries; the dirty-page flush check.  The redo/undo and binlog
        images of the rows written follow in one append each.  A batch
        stores exactly the bytes the same rows inserted one at a time
        would.

        Raises ProgrammingError, before anything is written, for a name
        the table lacks or one named twice.  For row ``k``'s ill-typed,
        out-of-range or unencodable value (ProgrammingError), NULL into
        NOT NULL, NULL key (IntegrityError), NaN key (ProgrammingError)
        or duplicate key (IntegrityError) it raises what inserting row
        ``k`` alone would, checked in that order (columns in table
        order); rows before ``k`` are written, nothing after.
        """
        reject_repeated_columns(names, ProgrammingError)
        given = {self.column(name).name: values for name, values in zip(names, columns)}
        n = len(columns[0]) if columns else 0
        primary_key = self.primary_key
        # The first row that fails a check, and its error.
        stop, error = n, None
        # Bits of the columns present in every row before ``stop``, and
        # (bit, values) of those NULL in some; each present column's cells.
        fixed, varying, cells = 0, [], []
        for index, column in enumerate(self.columns):
            values = given.get(column.name)
            if values is None or not stop:
                if column.not_null and column.name not in primary_key and stop:
                    stop, error = 0, IntegrityError(f"column {column.name!r} is NOT NULL")
                continue
            if stop < len(values):
                values = values[:stop]
            null_at = None
            if None in values and column.not_null and column.name not in primary_key:
                null_at = values.index(None)
                values = values[:null_at]
            encoded, failure = column.sql_type.encode_column(values)
            if failure is not None:
                stop, error = len(encoded), failure
            elif null_at is not None:
                stop, error = null_at, IntegrityError(f"column {column.name!r} is NOT NULL")
            if None in values:
                varying.append((1 << index, values))
            else:
                fixed |= 1 << index
            cells.append(encoded)
        for name in primary_key:
            values = given.get(name)
            null_at = 0 if values is None else _first_none(values, stop)
            if null_at < stop:
                stop, error = null_at, IntegrityError(f"primary key column {name!r} cannot be NULL")
        for name in primary_key:
            key_type = self._by_name[name].sql_type
            stop, error = key_type.refuse_keys(name, given.get(name, ()), stop, error)
        rows = self._assemble(stop, fixed, varying, cells)
        if len(primary_key) == 1:
            keys = given[primary_key[0]] if stop else ()
        else:
            keys = list(zip(*(given[name] for name in primary_key))) if stop else ()
        written = self._write(keys, rows, given)
        if error is not None:
            raise error
        return written

    def _assemble(self, n: int, fixed: int, varying, cells) -> List[bytes]:
        """The first ``n`` encoded rows: each is its null bitmap, then
        its cells in column order."""
        width = (len(self.columns) + 7) // 8
        if varying:
            masks = [fixed] * n
            for bit, values in varying:
                masks = [
                    mask if value is None else mask | bit
                    for mask, value in zip(masks, values)
                ]
            bitmap_of = {mask: mask.to_bytes(width, "little") for mask in set(masks)}
            bitmaps = list(map(bitmap_of.__getitem__, masks))
        else:
            bitmaps = [fixed.to_bytes(width, "little")] * n
        return list(map(b"".join, zip(bitmaps, *cells)))

    def _write(self, keys: Sequence, rows: List[bytes], given: Dict[str, Sequence]) -> int:
        """Store ``rows`` under ``keys`` in order, up to the first
        duplicate key, which raises IntegrityError; returns the count."""
        clustered = self._clustered
        insert_new = clustered.insert_new
        secondary = self._secondary
        # Index the values as stored: what a backfill from the rows reads.
        indexed = [(tree, self._by_name[name].sql_type.canonical(given[name][:len(rows)]))
                   for name, tree in secondary.items() if name in given]
        dirty = self._dirty_bytes
        written = entries = 0
        try:
            for key, encoded in zip(keys, rows):
                if not insert_new(key, encoded):
                    raise IntegrityError(
                        f"duplicate primary key {key!r} in table {self.name!r}"
                    )
                for tree, values in indexed:
                    value = values[written]
                    if indexable(value):
                        tree.insert((value, key))
                        entries += 1
                written += 1
                # InnoDB flushes dirty buffer-pool pages continuously
                # under bulk load; clients share that I/O cost.
                dirty += len(encoded) + ROW_HEADER_BYTES
                if dirty >= DIRTY_FLUSH_BYTES:
                    clustered.flush()
                    for tree in secondary.values():
                        tree.flush()
                    dirty = 0
        finally:
            self._dirty_bytes = dirty
            self._n_rows += written
            self._version += written
            if written:
                self._log(rows[:written] if written < len(rows) else rows, entries)
        return written

    def _log(self, rows: List[bytes], entries: int) -> None:
        """Append the redo/undo and binlog images of ``rows`` and count
        the batch's work."""
        payload = sum(map(len, rows))
        redo_log = self._redo_log
        if redo_log is not None:
            # InnoDB writes each mutation to the redo log before touching
            # the page, and builds an undo record for transaction rollback.
            redo_log += _REDO_HEADER
            redo_log += _REDO_SEPARATOR.join(rows)
            redo_log += _UNDO_RECORD
            self._m_redo_bytes.inc(payload + len(rows) * len(_REDO_SEPARATOR))
        binlog = self._binlog
        if binlog is not None:
            # Row-based replication log (on by default in production MySQL).
            binlog += _BINLOG_HEADER
            binlog += _BINLOG_HEADER.join(rows)
            self._m_binlog_bytes.inc(payload + len(rows) * len(_BINLOG_HEADER))
        self._m_rows.inc(len(rows))
        self._m_index_entries.inc(entries)

    def update_where(self, pushed, assignments: Dict[str, object]) -> int:
        """Update the rows satisfying ``pushed`` (a bound predicate from
        :mod:`repro.query.pushdown`, None for every row), found by
        :meth:`scan_batches`; returns the count.

        Every assignment is checked before any row or index is touched,
        with the rules :meth:`insert_columns` applies.  Raises
        ProgrammingError for unknown, primary-key or ill-typed
        assignments and IntegrityError for NULL into a NOT NULL column.
        """
        stored = {}  # each assignment as the column stores (and indexes) it
        for name, value in assignments.items():
            if name in self.primary_key:
                raise ProgrammingError("updating primary key columns is not supported")
            column = self.column(name)
            if value is not None:
                column.sql_type.validate_encode(value)
            elif column.not_null:
                raise IntegrityError(f"column {name!r} is NOT NULL")
            stored[name] = column.sql_type.canonical((value,))[0]
        rows = [
            pair for batch in self.scan_batches(pushed)
            for pair in zip(gather(batch.keys, batch.sel), batch.rows())
        ]
        clustered, secondary = self._clustered, self._secondary.items()
        for key, row in rows:
            for column_name, tree in secondary:
                if indexable(row[column_name]):
                    tree.delete((row[column_name], key))
            row.update(stored)
            clustered.insert(key, self.encode_row(row))
            for column_name, tree in secondary:
                if indexable(row[column_name]):
                    tree.insert((row[column_name], key))
        self._version += len(rows)
        return len(rows)

    def delete_where(self, pushed) -> int:
        """Delete the rows satisfying ``pushed`` (a bound predicate, None
        for every row), found by :meth:`scan_batches`; returns the count."""
        return self.delete_keys([
            key for batch in self.scan_batches(pushed) for key in gather(batch.keys, batch.sel)
        ])

    def delete_keys(self, keys: Sequence) -> int:
        """Delete the rows of ``keys`` (a composite key as a tuple) by
        descent of the clustered B-tree, their index entries by key too,
        each indexed column read off one :class:`PageBatch` of the rows;
        returns the count deleted.  A key no stored key equals — absent,
        deleted already, NULL, or of a type no stored key compares with —
        matches nothing, as a DELETE predicate would."""
        clustered = self._clustered
        deleted: List[object] = []
        rows: List[bytes] = []
        for key in keys:
            try:
                encoded = clustered.get(key)
            except TypeError:  # no stored key compares with it
                continue
            if encoded is None:
                continue
            clustered.delete(key)
            deleted.append(key)
            rows.append(encoded)
        if rows and self._secondary:
            batch = PageBatch(self, rows)
            for column_name, tree in self._secondary.items():
                for value, key in zip(batch.values(column_name), deleted):
                    if indexable(value):
                        tree.delete((value, key))
        self._n_rows -= len(deleted)
        self._version += len(deleted)
        return len(deleted)

    def truncate(self) -> None:
        self._clustered = BTree()
        for column_name in list(self._secondary):
            self._secondary[column_name] = BTree()
        self._n_rows = 0
        self._version += 1

    @property
    def version(self) -> int:
        """Mutation counter: unchanged ⇒ every read result is still valid."""
        return self._version

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key) -> Optional[Dict[str, object]]:
        """:meth:`get_batches` for one key, as a row (or None): a view for tests."""
        for batch in self.get_batches((key,)):
            return batch.rows()[0]
        return None

    def get_batches(self, keys: Sequence, index: Optional[str] = None) -> List[Batch]:
        """The rows of ``keys`` as one column batch, in
        requested-key order (absent keys skipped) — the fetch entry
        point beside :meth:`scan_batches`, and the relational analogue
        of the NoSQL engine's batched multi-get: one B-tree probe per
        key.

        With ``index`` the keys are values of that column and every row
        holding one of them is fetched: through the clustered index when
        ``index`` leads a composite primary key (InnoDB's prefix scan,
        e.g. ``NODE_CHILDREN(node_id, cell_id)`` probed by ``node_id``),
        else through the column's secondary index.

        Raises ProgrammingError when ``index`` names neither.
        """
        clustered = self._clustered
        encoded_rows: List[bytes] = []
        if index is None:
            for key in keys:
                encoded = clustered.get(key)
                if encoded is not None:
                    encoded_rows.append(encoded)
        elif index == self.primary_key[0] and len(self.primary_key) > 1:
            for value in keys:
                for key, encoded in clustered.items(lo=(value,)):
                    if key[0] != value:
                        break
                    encoded_rows.append(encoded)
        else:
            tree = self._secondary.get(index)
            if tree is None:
                raise ProgrammingError(f"no index on {self.name}.{index}")
            for value in keys:
                for composite, _ in tree.items(lo=(value,)):
                    if composite[0] != value:
                        break
                    encoded = clustered.get(composite[1])
                    if encoded is not None:
                        encoded_rows.append(encoded)
        return [PageBatch(self, encoded_rows)] if encoded_rows else []

    def scan_batches(self, pushed=None) -> Iterator[Batch]:
        """Every row in key order, one column batch per B-tree leaf
        page; with ``pushed`` (a bound predicate from
        :mod:`repro.query.pushdown`) each batch's selection is already
        narrowed to the rows satisfying it.

        A batch holds the page's *encoded* rows and decodes a column
        only when it is read (:class:`PageBatch`), so ``COUNT(*)``
        decodes nothing and a statement decodes the columns it names.
        The clustered B-tree has no zone maps: pushdown here is
        evaluating the predicate on the page's decoded columns, counted
        once per page.
        """
        for keys, values in self._clustered.leaves():
            batch = PageBatch(self, values, keys)
            if pushed is not None:
                pushed.narrow(batch)
            yield batch

    def __len__(self) -> int:
        return self._n_rows

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """On-disk size: clustered pages + row headers + secondary indexes."""
        data = self._clustered.size_bytes + ROW_HEADER_BYTES * self._n_rows
        data = int(data / FILL_FACTOR)
        for tree in self._secondary.values():
            entries = len(tree)
            data += int((tree.size_bytes + ROW_HEADER_BYTES // 2 * entries) / FILL_FACTOR)
        return data

    def __repr__(self) -> str:
        return f"Table({self.name!r}, pk={list(self.primary_key)}, rows={self._n_rows})"
