"""Column families: the tables of the columnar NoSQL engine.

The write path mirrors Cassandra: commit log append, memtable insert
(rows encoded immediately), synchronous secondary-index maintenance,
memtable flush to a compressed SSTable past a threshold, size-tiered
compaction.  ``size_bytes`` flushes and reports real encoded bytes —
this is what the paper's ``size_as_mb`` probe reads (§4).
"""

from __future__ import annotations

import operator
from itertools import islice
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.nosqldb.cache import (
    NEGATIVE,
    BlockCache,
    CacheStats,
    RowCache,
    block_cache_budget,
    row_cache_budget,
)
from repro.nosqldb.columnar import ColumnarCodec, RowColumns
from repro.nosqldb.errors import AlreadyExists, InvalidRequest
from repro.nosqldb.memtable import Memtable, Run
from repro.nosqldb.sstable import SSTable, compact, run_feed
from repro.nosqldb.types import CQLType, DoubleType, SetType
from repro.query.batch import Batch, FetchedBatch, VectorBatch
from repro.query.session import reject_repeated_columns
from repro.storage.btree import BTree
from repro.storage.encoding import encode_text
from repro.storage.values import indexable
from repro.storage.varint import encode_varint
from repro.telemetry import get_registry, get_tracer

_REGISTRY = get_registry()
_M_WRITES = _REGISTRY.counter(
    "nosqldb_writes_total", "rows written (insert/delete paths)", labels=("table",)
)
_M_FLUSHES = _REGISTRY.counter(
    "nosqldb_memtable_flushes_total", "memtables materialised into SSTables"
)
_M_FLUSHED_ROWS = _REGISTRY.counter(
    "nosqldb_flushed_rows_total", "rows written out by memtable flushes"
)
_M_COMPACTIONS = _REGISTRY.counter(
    "nosqldb_compactions_total", "size-tiered compactions run"
)
_M_FLUSHED_RUN_ROWS = _REGISTRY.counter(
    "nosqldb_flushed_run_rows_total",
    "flushed rows whose cells the write loop's encoded columns supplied (no row split)",
    labels=("table",),
)

#: Memtable flush threshold, bytes.
FLUSH_THRESHOLD = 8 * 1024 * 1024

#: Rows a bulk write validates and encodes at a time, column by column:
#: enough to pay the per-chunk setup back many times over, while a
#: cube-sized batch holds one chunk of encoded cells at a time, not the
#: whole batch's (peak RSS).
ENCODE_CHUNK = 2048

#: Number of SSTables that triggers a size-tiered compaction.
COMPACTION_THRESHOLD = 4


class ColumnFamilyStats(NamedTuple):
    """A read-only structural + cache summary of one column family."""

    rows: int                 # live rows (memtables + SSTables, deduplicated)
    memtable_rows: int        # rows in the active memtable(s)
    pending_memtables: int    # sealed memtables awaiting the flusher
    sstables: int
    indexes: int
    n_writes: int
    row_cache: CacheStats
    block_cache: CacheStats
    columnar_blocks: int = 0    # blocks across all SSTables (all columnar)
    blocks_skipped: int = 0     # lifetime zone-map block skips
    dict_hit_ratio: float = 0.0  # dictionary-encoded share of column chunks


def _overlaps(span, others) -> bool:
    """Does the key range ``span`` intersect any of ``others`` (each a
    ``(lo, hi)`` pair, or None for an empty layer)?"""
    lo, hi = span
    return any(
        other is not None and lo <= other[1] and other[0] <= hi
        for other in others
    )


def _set_block_counts(span, sstables: Sequence[SSTable]) -> None:
    """Record what a flush or compaction wrote — its blocks — and what it
    cost: encode, compress and write (spill) seconds, and the rows whose
    cells came as columns or from re-splitting row bytes."""
    span.set("blocks", sum(sstable.stats().blocks for sstable in sstables))
    costs = [sstable.build_cost for sstable in sstables]
    for field in costs[0]._fields if costs else ():
        span.set(field, sum(getattr(cost, field) for cost in costs))


class Column:
    """A named, typed column."""

    __slots__ = ("name", "cql_type", "_encoded_name")

    def __init__(self, name: str, cql_type: CQLType) -> None:
        self.name = name
        self.cql_type = cql_type
        self._encoded_name = encode_text(name)

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {self.cql_type.name})"


class SecondaryIndex:
    """A synchronous index over one column.

    Entries are ``(column_value, primary_key)`` pairs in a write-through
    B-tree: every mutation re-encodes the touched index page, which is
    the cost model for Cassandra's expensive secondary indexes — the
    cause of NoSQL-Min's insertion times in Table 5 of the paper.  NULL
    and NaN have no entry (:func:`~repro.storage.values.indexable`).
    """

    __slots__ = ("name", "column", "_tree")

    def __init__(self, name: str, column: str) -> None:
        self.name = name
        self.column = column
        self._tree = BTree(write_through=True)

    def add(self, value, key) -> None:
        if indexable(value):
            self._tree.insert((value, key))

    def remove(self, value, key) -> None:
        if indexable(value):
            self._tree.delete((value, key))

    def lookup(self, value) -> List[object]:
        """Primary keys whose indexed column equals ``value``."""
        keys = []
        for composite, _ in self._tree.items(lo=(value,)):
            if composite[0] != value:
                break
            keys.append(composite[1])
        return keys

    @property
    def size_bytes(self) -> int:
        return self._tree.size_bytes

    def __len__(self) -> int:
        return len(self._tree)


class ColumnFamily:
    """One table: schema, memtables/SSTables, secondary indexes."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: str,
        compression: bool = True,
        commit_log=None,
        data_dir=None,
        block_cache_bytes: Optional[int] = None,
        row_cache_bytes: Optional[int] = None,
    ) -> None:
        """``block_cache_bytes`` / ``row_cache_bytes`` override the
        environment-configured cache budgets (0 disables a cache)."""
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise InvalidRequest(f"duplicate column in {name!r}")
        if primary_key not in names:
            raise InvalidRequest(f"primary key {primary_key!r} is not a column of {name!r}")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self.primary_key = primary_key
        self.compression = compression
        self._codec = ColumnarCodec([(c.name, c.cql_type) for c in columns])
        self._by_name: Dict[str, Column] = {c.name: c for c in self.columns}
        self._positions: Dict[str, int] = {name: index for index, name in enumerate(names)}
        self._pk_index = names.index(primary_key)
        self._memtable = Memtable()
        # Memtables handed to the (simulated) background flusher: sealed,
        # not yet built into SSTables.  Clients don't wait for flushes —
        # and reads search the sealed memtables directly, so a read never
        # forces materialisation as a side effect (docs/read_path.md).
        self._pending: List[Memtable] = []
        self._sstables: List[SSTable] = []
        self._block_cache = BlockCache(
            block_cache_budget() if block_cache_bytes is None else block_cache_bytes
        )
        self._generation = 0
        # Live-row count, kept exact by the write path and crash recovery.
        self._n_live = 0
        self._indexes: Dict[str, SecondaryIndex] = {}
        self._commit_log = commit_log
        self._data_dir = data_dir
        self._n_writes = 0
        self._m_writes = _M_WRITES.labels(name)
        # Read-path row cache (docs/read_path.md); a zero budget disables.
        self._row_cache = RowCache(
            row_cache_budget() if row_cache_bytes is None else row_cache_bytes
        )
        # Deterministic write clock standing in for microsecond timestamps.
        self._write_clock = 1_400_000_000_000_000

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------
    def column(self, name: str) -> Column:
        """Raises InvalidRequest when the table has no such column."""
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidRequest(f"table {self.name!r} has no column {name!r}") from None

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def create_index(self, index_name: str, column: str) -> SecondaryIndex:
        """Create (and backfill) a secondary index on ``column``.

        Raises InvalidRequest for unindexable columns (the primary key,
        collections) and AlreadyExists for duplicate indexes.
        """
        self.column(column)
        if column == self.primary_key:
            raise InvalidRequest("cannot create a secondary index on the primary key")
        if column in self._indexes:
            raise AlreadyExists(f"index on {self.name}.{column} already exists")
        cql_type = self.column(column).cql_type
        if isinstance(cql_type, SetType):
            raise InvalidRequest("secondary indexes on collections are not supported")
        index = self._indexes[column] = self._filled([SecondaryIndex(index_name, column)])[0]
        return index

    @property
    def indexes(self) -> Tuple[SecondaryIndex, ...]:
        return tuple(self._indexes.values())

    @property
    def indexed_columns(self) -> Tuple[str, ...]:
        """Names of the columns carrying a secondary index.

        The query planner snapshots this as part of a cached plan's
        validity signature: a CREATE INDEX changes it and invalidates
        plans compiled before the index existed.
        """
        return tuple(self._indexes)

    @property
    def block_cache_hits(self) -> int:
        """Cumulative block-cache hit count (cheap reads).

        The query kernel probes this around each batched read to
        attribute cache-backed block fetches to the plan's access node.
        """
        return self._block_cache.hits

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def insert(self, row: Dict[str, object]) -> None:
        """Upsert one row (CQL INSERT semantics): a one-row
        :meth:`insert_columns`.

        Raises InvalidRequest for unknown columns, a missing primary key
        or an ill-typed value.
        """
        key = row.get(self.primary_key)
        if key is None:
            raise InvalidRequest(f"INSERT into {self.name!r} misses primary key")
        columns = []
        values = []
        for name, value in row.items():
            column = self.column(name)
            if value is not None:
                columns.append(column)
                values.append((value,))
        self.insert_columns(columns, values)

    def insert_columns(self, columns: Sequence[Column], values: Sequence[Sequence]) -> int:
        """The one write loop: upsert rows given column-wise —
        ``values[j][i]`` is row ``i``'s value of ``columns[j]``, None
        for no cell; one of the columns is the primary key.  This is what
        a server executes after binding a prepared INSERT's parameters to
        its column metadata.  Returns the count written.

        Per :data:`ENCODE_CHUNK` rows: each column is validated and
        encoded over the chunk with its type resolved once, and each row
        assembled with the next write-clock tick as its cells' timestamp;
        the rows the keys held before are read in one walk
        (:meth:`_locate`, the liveness probe); then per row, in row
        order, index maintenance, the memtable put, the row-cache
        invalidation and the flush check; then the chunk's commit-log
        records in one append.  A batch stores exactly the bytes the
        same rows written one at a time would: cells in column order,
        the same timestamps, seal points and commit-log records.

        The liveness probe is skipped for a chunk that proves its keys
        new (:meth:`_fresh`); a table with a secondary index reads every
        key before writing it, to update the index.  A proven-new
        chunk, written whole, also leaves its encoded cell columns with
        the memtable(s) it landed in as a :class:`Run`, which the flush
        hands the SSTable emitter as they are; any other chunk drops the
        runs of every memtable it touched.

        Raises InvalidRequest, before anything is written, for a column
        this table does not have or one named twice — each column is
        resolved by name to this table's own.  Raises InvalidRequest for
        a missing primary key, or a key or value the value domain
        (:mod:`repro.storage.values`) refuses, in row ``k``: rows before
        ``k`` are written (row ``k``'s clock tick too, for a value that
        fails its column), nothing after.
        """
        columns = [self.column(column.name) for column in columns]
        reject_repeated_columns([column.name for column in columns], InvalidRequest)
        key_at = next(
            (j for j, column in enumerate(columns) if column.name == self.primary_key), None
        )
        if key_at is None:
            raise InvalidRequest(f"INSERT into {self.name!r} misses primary key")
        n = len(values[key_at])
        for start in range(0, n, ENCODE_CHUNK):
            stop = start + ENCODE_CHUNK
            self._write_chunk(columns, [column[start:stop] for column in values], key_at)
        return n

    def _write_chunk(self, columns: Sequence[Column], chunk: List[Sequence], key_at: int) -> None:
        """:meth:`insert_columns` over one chunk of rows."""
        keys = chunk[key_at]
        # Where the chunk stops: the first row whose key is missing or
        # whose value fails its type (the earliest column wins a tie).
        stop, error, ticked = len(keys), None, 0
        if None in keys:
            stop = keys.index(None)
            error = InvalidRequest(f"INSERT into {self.name!r} misses primary key")
        stop, error = columns[key_at].cql_type.refuse_keys(self.primary_key, keys, stop, error)
        cells = []
        for column, column_values in zip(columns, chunk):
            encoded, failure = column.cql_type.encode_column(column_values[:stop])
            cells.append(encoded)
            if failure is not None:
                stop, error, ticked = len(encoded), failure, 1
        rows = self._encode_rows(columns, cells, stop)
        keys = keys[:stop]
        indexes = list(self._indexes.values())
        # Each indexed column's values in the chunk as stored (None: not written).
        written = {column.name: column.cql_type.canonical(values[:stop])
                   for column, values in zip(columns, chunk) if column.name in self._indexes}
        indexed = [written.get(index.column) for index in indexes]
        fresh = not indexes and self._fresh(keys)
        run = self._run(columns, chunk, cells, rows, keys) if fresh and error is None else None
        # The rows the keys held before, read in one walk: the liveness
        # probe a fresh chunk skips, and the index entries to replace.
        previous = {} if fresh else self._locate(keys)
        entries = self._indexed_values(previous)
        row_cache = self._row_cache
        memtable = self._memtable
        # Each memtable the chunk lands in, with the first row it took.
        landed = [(memtable, 0)]
        writes = self._n_writes
        # Rows past their commit-log point: a row that fails during its
        # index update or put is logged, as a log-first write of that row
        # alone would have logged it.
        reached = 0
        try:
            for position, (key, encoded) in enumerate(zip(keys, rows)):
                reached += 1
                old = previous.get(key)
                if indexes:
                    for index, value in zip(indexes, entries.get(key, ())):
                        index.remove(value, key)
                    # A repeated key finds this row's values.
                    new = entries[key] = [
                        None if values is None else values[position] for values in indexed
                    ]
                    for index, value in zip(indexes, new):
                        index.add(value, key)
                memtable.put(key, encoded)
                if not fresh:
                    previous[key] = encoded  # a repeated key finds this row
                row_cache.invalidate(key)
                if old is None:
                    self._n_live += 1
                self._n_writes += 1
                if memtable.approximate_bytes >= FLUSH_THRESHOLD:
                    self.seal_memtable()
                    memtable = self._memtable
                    landed.append((memtable, position + 1))
            reached += ticked  # the failing row ticked the clock, no more
        except BaseException:
            run = None
            raise
        finally:
            ends = [start for _, start in landed[1:]] + [len(rows)]
            for (target, start), end in zip(landed, ends):
                if run is None:
                    target.drop_runs()
                elif end > start:
                    target.add_run(run, start, end)
            self._write_clock += reached
            logged = min(reached, stop)
            if logged and self._commit_log is not None:
                self._commit_log.append_many(self.name, keys[:logged], rows[:logged])
            if self._n_writes > writes:
                self._m_writes.inc(self._n_writes - writes)
        if error is not None:
            raise error

    def _run(self, columns: Sequence[Column], chunk: List[Sequence], cells: List[List],
             rows: List[bytes], keys: Sequence) -> Run:
        """The :class:`Run` of a proven-fresh chunk written whole."""
        positions = tuple(self._positions[column.name] for column in columns)
        typed = []
        for column, values in zip(columns, chunk):
            cql_type = column.cql_type
            # A double's bound values do not stand for its stored ones
            # (NaN, -0.0), and sets have no zone entries.
            exact = (not isinstance(cql_type, (DoubleType, SetType))
                     and set(map(type, values)) <= cql_type.value_types | {type(None)})
            typed.append(values if exact else None)
        return Run(keys, rows, positions, cells, self._write_clock + 1, typed)

    def _encode_rows(self, columns: Sequence[Column], cells: List[List], n: int) -> List[bytes]:
        """The first ``n`` stored rows from encoded cell columns in
        Cassandra 2.x's format (docs/storage_formats.md): a cell count,
        then a (name, 8-byte timestamp, value) triple per non-None cell,
        row ``i``'s cells stamped with the write clock's ``i + 1``-th
        next tick."""
        clock = self._write_clock + 1
        stamps = [tick.to_bytes(8, "little") for tick in range(clock, clock + n)]
        pieces = [
            [b"" if cell is None else name + stamp + cell for stamp, cell in zip(stamps, column)]
            for name, column in zip([c._encoded_name for c in columns], cells)
        ]
        width = len(columns)
        if any(None in column for column in cells):
            heads = [encode_varint(count) for count in range(width + 1)]
            counts = [heads[width - row.count(None)] for row in zip(*cells)]
        else:
            counts = [encode_varint(width)] * n
        return list(map(b"".join, zip(counts, *pieces)))

    def _fresh(self, keys: Sequence) -> bool:
        """Whether every one of ``keys`` provably has no row: they
        strictly ascend and the first lies above every key any layer
        holds a row or a tombstone for — O(layers) beside the one pass
        over ``keys``.  Keys that do not compare prove nothing."""
        if not keys:
            return True
        try:
            if not all(map(operator.lt, keys, islice(keys, 1, None))):
                return False
            first = keys[0]
            for layer in (self._memtable, *self._pending, *self._sstables):
                span = layer.key_range()
                if span is not None and not first > span[1]:
                    return False
        except TypeError:
            return False
        return True

    def update(self, key, assignments: Dict[str, object]) -> None:
        """CQL UPDATE: read-modify-write of non-key columns.

        Raises InvalidRequest when ``assignments`` touch the primary key,
        and, before anything is read or written, for a key an INSERT
        would refuse.
        """
        if self.primary_key in assignments:
            raise InvalidRequest("cannot update the primary key")
        self.columns[self._pk_index].cql_type.check_key(self.primary_key, key)
        current = self.get(key)
        if current is None:
            current = {c.name: None for c in self.columns}
            current[self.primary_key] = key
        current.update(assignments)
        self.insert({k: v for k, v in current.items() if v is not None})

    def delete(self, key) -> None:
        """CQL DELETE by primary key: a one-key :meth:`delete_keys`."""
        self.delete_keys((key,))

    def delete_keys(self, keys: Sequence) -> int:
        """The one delete loop: a tombstone per key, in order; returns
        the count of rows that were live.

        The keys are checked as one column (:meth:`ValueType.check_keys`)
        and their rows read in one layered walk (:meth:`_locate`), which
        gives the secondary-index entries to remove and the exact
        live-row count.  The tombstones' commit-log records — an empty
        row payload each, the bytes one ``append`` per key writes — go
        in one append, before the memtable takes the tombstones.

        Raises InvalidRequest for a key an INSERT would refuse, at key
        ``k``: the keys before ``k`` are deleted and logged, nothing
        from ``k`` on.
        """
        stop, error = self.columns[self._pk_index].cql_type.check_keys(self.primary_key, keys)
        keys = keys[:stop]
        located = self._locate(keys)
        live = sum(hit is not None for hit in located.values())
        for key, values in self._indexed_values(located).items():
            for index, value in zip(self._indexes.values(), values):
                index.remove(value, key)
        if keys and self._commit_log is not None:
            self._commit_log.append_many(self.name, keys, [b""] * len(keys))
        for key in keys:
            self._memtable.delete(key)
            self._row_cache.invalidate(key)
        self._n_live -= live
        if error is not None:
            raise error
        return live

    def seal_memtable(self) -> None:
        """Hand the active memtable to the background flusher."""
        if len(self._memtable) == 0 and not self._memtable.tombstones:
            return
        self._pending.append(self._memtable)
        self._memtable = Memtable()

    def flush(self) -> None:
        """Seal the memtable and materialise all pending SSTables."""
        self.seal_memtable()
        self._materialize()

    def _next_data_path(self):
        """File path for the next SSTable generation,
        ``{table}-{generation}-Data.db`` (None = in-memory)."""
        if self._data_dir is None:
            return None
        self._generation += 1
        return self._data_dir / f"{self.name.lower()}-{self._generation}-Data.db"

    def _materialize(self) -> None:
        """Build SSTables for the sealed memtables (the flusher's work).

        The live key→row mapping is unchanged, so neither cache needs
        invalidating; the superseded tables of a compaction release their
        cached blocks via ``delete_file``.
        """
        pending = self._pending
        if pending:
            with get_tracer().span(
                "nosqldb.flush", table=self.name, memtables=len(pending)
            ) as span:
                flushed_rows = 0
                built = []
                for memtable in pending:
                    flushed_rows += len(memtable)
                    runs = memtable.column_runs()
                    built.append(
                        SSTable(
                            memtable.sorted_items() if runs is None
                            else run_feed(runs, self._codec),
                            self._codec,
                            compressed=self.compression,
                            tombstones=memtable.tombstones,
                            path=self._next_data_path(),
                            block_cache=self._block_cache,
                        )
                    )
                    memtable.drop_runs()  # built: release the cell columns
                self._sstables.extend(built)
                _M_FLUSHES.inc(len(pending))
                _M_FLUSHED_ROWS.inc(flushed_rows)
                _M_FLUSHED_RUN_ROWS.labels(self.name).inc(
                    sum(sstable.build_cost.rows_from_columns for sstable in built)
                )
                span.set("rows", flushed_rows)
                _set_block_counts(span, built)
                pending.clear()
        if len(self._sstables) >= COMPACTION_THRESHOLD:
            self._compact_sstables()

    def _compact_sstables(self) -> None:
        if len(self._sstables) <= 1:
            return
        with get_tracer().span(
            "nosqldb.compaction", table=self.name, inputs=len(self._sstables)
        ) as span:
            self._sstables = [
                compact(
                    self._sstables,
                    self._codec,
                    compressed=self.compression,
                    path=self._next_data_path(),
                    block_cache=self._block_cache,
                )
            ]
            _M_COMPACTIONS.inc()
            _set_block_counts(span, self._sstables)

    def compact(self) -> None:
        """Flush, then major-compact down to one SSTable.

        Size-tiered compaction normally waits for ``COMPACTION_THRESHOLD``
        tables; this forces the steady state a long-lived stored cube
        reaches anyway — one compacted table.
        """
        self.flush()
        self._compact_sstables()

    def truncate(self) -> None:
        """Drop every row, and its commit-log records: no crash replays one."""
        if self._commit_log is not None:
            self._commit_log.discard(self.name)
        self._memtable = Memtable()
        self._pending = []
        for sstable in self._sstables:
            sstable.delete_file()
        self._sstables = []
        self._n_live = 0
        self._row_cache.clear()
        for column_name in list(self._indexes):
            index = self._indexes[column_name]
            self._indexes[column_name] = SecondaryIndex(index.name, index.column)

    # ------------------------------------------------------------------
    # crash recovery support
    # ------------------------------------------------------------------
    def drop_volatile_state(self) -> None:
        """Lose everything a crash loses: memtables, not SSTables.

        The row cache dies with the process, and the live-row count is
        recounted over the SSTables left.
        """
        self._memtable = Memtable()
        self._pending = []
        self._n_live = sum(batch.count() for batch in self.scan_batches())
        self._row_cache.clear()

    def apply_replayed(self, key, encoded_row: bytes) -> None:
        """Re-apply one commit-log mutation (empty payload = tombstone)."""
        was_live = self._locate((key,))[key] is not None
        self._memtable.drop_runs()
        if encoded_row:
            self._memtable.put(key, encoded_row)
            self._n_live += not was_live
        else:
            self._memtable.delete(key)
            self._n_live -= was_live
        self._row_cache.invalidate(key)

    def rebuild_indexes(self) -> None:
        """Rebuild every secondary index from the recovered data."""
        if self._indexes:
            fresh = [SecondaryIndex(old.name, old.column) for old in self._indexes.values()]
            self._indexes = {index.column: index for index in self._filled(fresh)}

    def _filled(self, indexes: List[SecondaryIndex]) -> List[SecondaryIndex]:
        """``indexes``, each given every live row's entry (one scan)."""
        for batch in self.scan_batches():
            keys = batch.values(self.primary_key)
            for index in indexes:
                for value, key in zip(batch.values(index.column), keys):
                    index.add(value, key)
        return indexes

    def _indexed_values(self, located: Dict[object, object]) -> Dict[object, Sequence]:
        """Each live key of a :meth:`_locate` answer with its row's
        values of the indexed columns, in index order — read off batches
        over the hits (:meth:`_fetched_batches`): an SSTable hit decodes
        those columns at its position only."""
        if not self._indexes:
            return {}
        live = [key for key, hit in located.items() if hit is not None]
        batches = self._fetched_batches([located[key] for key in live])
        columns = [
            [value for batch in batches for value in batch.values(index.column)]
            for index in self._indexes.values()
        ]
        return dict(zip(live, zip(*columns)))

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _locate(self, keys) -> Dict[object, object]:
        """Layered walk for ``keys`` — active memtable →
        sealed memtables (searched in place: a read never forces the
        flusher's work) → SSTables, newest first, each SSTable decoding
        a touched block once (:meth:`SSTable.locate`).  Every key maps
        to its encoded row (memtables), to ``(ColumnVectors, position)``
        (SSTable blocks) or to None (deleted or absent)."""
        resolved: Dict[object, object] = {}
        unresolved = list(keys)
        for memtable in (self._memtable, *reversed(self._pending)):
            if not unresolved:
                return resolved
            remaining = []
            for key in unresolved:
                encoded = memtable.get(key)
                if encoded is not None:
                    resolved[key] = encoded
                elif memtable.is_deleted(key):
                    resolved[key] = None
                else:
                    remaining.append(key)
            unresolved = remaining
        unresolved = set(unresolved)
        for sstable in reversed(self._sstables):
            if not unresolved:
                break
            for key in [k for k in unresolved if sstable.is_deleted(k)]:
                resolved[key] = None
                unresolved.discard(key)
            for key, hit in sstable.locate(list(unresolved)).items():
                resolved[key] = hit
                unresolved.discard(key)
        for key in unresolved:
            resolved[key] = None
        return resolved

    def get_batches(self, keys: Sequence, index: Optional[str] = None) -> List[Batch]:
        """The live rows of ``keys`` as column batches, in requested-key
        order (a repeated key repeats its row, an absent one is skipped)
        — the fetch entry point beside :meth:`scan_batches`; no row dict
        is built.  With ``index`` the keys are values of that secondary-
        indexed column and every row holding one of them is fetched.

        Keys the row cache misses resolve in one batched walk
        (:meth:`_locate`) whose hits leave as batches.  With the cache
        on, those rows are decoded whole off the batches and cached
        (:meth:`_cache_rows`): the answer is one batch over cached rows.

        Raises InvalidRequest when ``index`` names an unindexed column.
        """
        if index is not None:
            secondary = self._indexes.get(index)
            if secondary is None:
                raise InvalidRequest(
                    f"no secondary index on {self.name}.{index}; "
                    "use ALLOW FILTERING for a full scan"
                )
            keys = [key for value in keys for key in secondary.lookup(value)]
        row_cache = self._row_cache
        hits: List[object] = list(map(row_cache.get, keys))
        if None in hits:
            located = self._locate({key: None for key, hit in zip(keys, hits) if hit is None})
            if not row_cache.enabled:
                return self._fetched_batches([located[key] for key in keys])
            found = self._cache_rows(located)
            hits = [found[key] if hit is None else hit for key, hit in zip(keys, hits)]
        rows = [hit for hit in hits if hit is not NEGATIVE] if NEGATIVE in hits else hits
        at = self._positions  # a cached row's values are in schema order
        return [FetchedBatch(
            len(rows), lambda name: list(map(operator.itemgetter(at[name]), rows)),
            lambda name, sel: [rows[i][at[name]] for i in sel], self._codec.column_names, None,
        )] if rows else []

    def _cache_rows(self, located: Dict[object, object]) -> Dict[object, object]:
        """``located`` (a :meth:`_locate` answer) with each hit replaced by
        its row decoded whole off the hits' batches, an absent key by
        :data:`NEGATIVE`; each is cached, a row charged its stored size."""
        names = self._codec.column_names
        rows = iter([
            list(row) for batch in self._fetched_batches(list(located.values()))
            for row in zip(*[batch.values(name) for name in names])
        ])
        put = self._row_cache.put
        for key, hit in located.items():
            if hit is None:
                located[key] = NEGATIVE
                put(key, None)
            else:
                row = located[key] = next(rows)
                put(key, row, hit[0].row_size(hit[1]) if type(hit) is tuple else len(hit))
        return located

    def _fetched_batches(self, hits: List) -> List[Batch]:
        """Per-key :meth:`_locate` hits, in order, as batches (an absent
        key's None skipped): a run of encoded memtable rows becomes one
        batch over their columns (:class:`RowColumns`); a run of
        ascending positions in one SSTable block one ``FetchedBatch``."""
        runs: List[Tuple[object, List]] = []
        source = run = None
        for hit in hits:
            if hit is None:
                continue
            block, item = hit if type(hit) is tuple else (None, hit)
            if run is None or block is not source or (block is not None and item <= run[-1]):
                source, run = block, []
                runs.append((source, run))
            run.append(item)
        names = self._codec.column_names
        return [
            VectorBatch(len(run), RowColumns(self._codec, run).typed, names) if block is None
            else FetchedBatch(len(block), block.typed, block.values_at, names, run)
            for block, run in runs
        ]

    def get(self, key) -> Optional[Dict[str, object]]:
        """:meth:`get_batches` for one key, as a row (or None) — a view
        for the write path, checkers and tests; queries consume the
        batches."""
        for batch in self.get_batches((key,)):
            return batch.rows()[0]
        return None

    def scan_batches(self, pushed=None) -> Iterator[Batch]:
        """Every live row as column batches; with ``pushed``
        (a bound predicate from :mod:`repro.query.pushdown`) each batch's
        selection is already narrowed to the rows satisfying it.

        Layers are visited newest first — active memtable, sealed
        memtables (searched in place: scanning never forces
        materialisation), SSTables — and no row is built: memtable rows
        leave as one batch per memtable over their columns, split and
        decoded as a read touches them (:class:`RowColumns`), SSTables as
        one batch per block (:meth:`SSTable.scan_batches`).

        LSM shadowing narrows a batch's selection by key and is only
        tracked where it can happen: a layer checks the
        ``seen`` keys when a *newer* layer's key range overlaps its own,
        and records its keys (predicate-failing ones and tombstones
        included — a newer failing version hides the older passing one)
        when an *older* layer's does.  A single layer, or the disjoint
        id ranges two stored cubes occupy, keep no ``seen`` set at all,
        and only a layer that records nothing may skip its zone-refuted
        blocks unread.
        """
        layers = [self._memtable, *reversed(self._pending), *reversed(self._sstables)]
        ranges = [layer.key_range() for layer in layers]
        names = self._codec.column_names
        seen: set = set()
        for position, (layer, span) in enumerate(zip(layers, ranges)):
            if span is None:
                continue
            shadow = seen if _overlaps(span, ranges[:position]) else None
            record = seen if _overlaps(span, ranges[position + 1:]) else None
            if isinstance(layer, SSTable):
                yield from layer.scan_batches(pushed, shadow, record)
            else:
                if shadow:
                    live = [row for key, row in layer if key not in shadow]
                else:
                    live = [row for _, row in layer]
                if record is not None:
                    record.update(key for key, _ in layer)
                if live:
                    batch = VectorBatch(len(live), RowColumns(self._codec, live).typed, names)
                    if pushed is not None:
                        pushed.narrow(batch)
                    yield batch
            if record is not None:
                record.update(layer.tombstones)

    def has_index(self, column: str) -> bool:
        return column in self._indexes

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_live

    @property
    def n_writes(self) -> int:
        return self._n_writes

    @property
    def size_bytes(self) -> int:
        """On-disk footprint: SSTables + secondary indexes (post-flush)."""
        self.flush()
        total = sum(s.size_bytes for s in self._sstables)
        total += sum(ix.size_bytes for ix in self._indexes.values())
        return total

    def stats(self) -> ColumnFamilyStats:
        """A read-only structural + cache snapshot (no block reads)."""
        columnar_blocks = 0
        blocks_skipped = 0
        dict_chunks = 0
        plain_chunks = 0
        for sstable in self._sstables:
            table_stats = sstable.stats()
            columnar_blocks += table_stats.blocks
            blocks_skipped += table_stats.blocks_skipped
            dict_chunks += table_stats.dict_chunks
            plain_chunks += table_stats.plain_chunks
        chunks = dict_chunks + plain_chunks
        return ColumnFamilyStats(
            rows=len(self),
            memtable_rows=len(self._memtable),
            pending_memtables=len(self._pending),
            sstables=len(self._sstables),
            indexes=len(self._indexes),
            n_writes=self._n_writes,
            row_cache=self._row_cache.stats(),
            block_cache=self._block_cache.stats(),
            columnar_blocks=columnar_blocks,
            blocks_skipped=blocks_skipped,
            dict_hit_ratio=dict_chunks / chunks if chunks else 0.0,
        )

    def __repr__(self) -> str:
        return (
            f"ColumnFamily({self.name!r}, pk={self.primary_key!r}, "
            f"columns={list(self.column_names)})"
        )
