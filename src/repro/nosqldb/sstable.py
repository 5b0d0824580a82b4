"""SSTables: immutable, sorted, block-compressed row files.

A flush turns a memtable into one SSTable: rows sorted by primary key,
grouped into blocks of ~8 KiB of row bytes, each block zlib-compressed
(Cassandra compresses SSTables by default — this is the mechanism behind
the NoSQL schemas' competitive sizes in Table 4).  A sparse index keeps the first
key of every block for binary-searched point reads.

Every stored block is in the column-major layout of
:mod:`repro.nosqldb.columnar` and starts with its one-byte format tag,
``'C'``; a block with any other tag is rejected on read
(:class:`~repro.nosqldb.errors.CorruptBlock`).  Beside each block the
table keeps in-memory per-column zone maps that
:meth:`SSTable.scan_batches` uses to skip whole blocks under a
pushed-down predicate (see :mod:`repro.query.pushdown`), and the chunk
layout that lets a read parse only the column chunks it touches.

Both reads leave as column batches: :meth:`SSTable.scan_batches` hands
out whole blocks, :meth:`SSTable.locate` the blocks and positions of
the keys a fetch names — no row is built for either.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import operator
import zlib
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.flags import checks_enabled
from repro.nosqldb.cache import BlockCache
from repro.nosqldb.columnar import TAG_COLUMNAR, ChunkLayout, ColumnVectors, ColumnarCodec
from repro.nosqldb.errors import CorruptBlock
from repro.query.batch import Batch, VectorBatch
from repro.storage.btree import encode_key
from repro.storage.varint import encode_varint
from repro.telemetry import get_registry, wall_clock

_REGISTRY = get_registry()
_M_SSTABLES_WRITTEN = _REGISTRY.counter(
    "nosqldb_sstables_written_total", "SSTables built (flushes and compactions)"
)
_M_SSTABLE_ROWS = _REGISTRY.counter(
    "nosqldb_sstable_rows_written_total", "rows written into SSTables"
)
_M_BLOCKS_SKIPPED = _REGISTRY.counter(
    "nosqldb_blocks_skipped_total",
    "SSTable blocks skipped via zone maps under pushed-down predicates",
)

#: Block size target: the row-major entry bytes (key plus encoded row,
#: each length-prefixed) one block's rows would take.  8 KiB is a 1 KiB
#: row-store page times eight, Parquet-style: column groups only
#: amortize their per-block directory/chunk overhead — and give
#: dictionaries and zone maps enough rows to bite — when a block holds
#: tens of rows; zlib level 1 over such chunks approximates Cassandra's
#: default LZ4 chunk compressor on these feeds (see DESIGN.md).
BLOCK_BYTES = 8 * 1024

#: Fixed per-SSTable footer/metadata charge (stats, bloom filter stub).
SSTABLE_OVERHEAD = 96

#: zlib level used for block compression.  Level 1 approximates the
#: throughput/ratio trade-off of Cassandra's default LZ4 chunk compressor.
COMPRESSION_LEVEL = 1

#: The format tag every stored block starts with.
_TAG = bytes((TAG_COLUMNAR,))

#: Bloom filter sizing: bits per key and hash count (Cassandra defaults
#: target ~1% false positives with ~10 bits/key).
BLOOM_BITS_PER_KEY = 10
BLOOM_HASHES = 3

class BloomFilter:
    """A plain Bloom filter over row keys.

    Cassandra keeps one per SSTable so that point reads skip tables that
    cannot contain the key — this is what keeps the read-before-write of
    secondary-index maintenance affordable.
    """

    __slots__ = ("_bits", "_n_bits")

    def __init__(self, n_keys: int) -> None:
        self._n_bits = max(64, n_keys * BLOOM_BITS_PER_KEY)
        self._bits = bytearray((self._n_bits + 7) // 8)

    def add_all(self, keys) -> None:
        """Set every key's bits: double hashing ``h1 + i*h2 mod m``,
        with multiplicative mixing so that small integer keys (whose
        hash is the value itself) spread."""
        bits = self._bits
        n_bits = self._n_bits
        for key in keys:
            mixed = (hash(key) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            probe = mixed >> 32
            step = (mixed & 0xFFFFFFFF) | 1
            for _ in range(BLOOM_HASHES):
                position = probe % n_bits
                bits[position >> 3] |= 1 << (position & 7)
                probe += step

    def might_contain(self, key) -> bool:
        """Whether every bit :meth:`add_all` sets for ``key`` is set."""
        bits = self._bits
        n_bits = self._n_bits
        mixed = (hash(key) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        probe = mixed >> 32
        step = (mixed & 0xFFFFFFFF) | 1
        for _ in range(BLOOM_HASHES):
            position = probe % n_bits
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
            probe += step
        return True

    @property
    def size_bytes(self) -> int:
        return len(self._bits)


class SSTableStats(NamedTuple):
    """A read-only structural summary of one :class:`SSTable`."""

    rows: int
    blocks: int
    compressed: bool
    on_disk: bool            # blocks spilled to a data file
    tombstones: int
    data_bytes: int          # stored block payload (post-compression)
    index_bytes: int         # sparse block index
    bloom_bytes: int
    size_bytes: int          # data + index + bloom + fixed overhead
    dict_chunks: int = 0                   # dictionary-encoded column chunks
    plain_chunks: int = 0                  # plain column chunks
    blocks_skipped: int = 0                # lifetime zone-map block skips

    @property
    def rows_per_block(self) -> float:
        return self.rows / self.blocks if self.blocks else 0.0

    @property
    def dict_hit_ratio(self) -> float:
        """Fraction of columnar column chunks that dictionary-encoded."""
        chunks = self.dict_chunks + self.plain_chunks
        return self.dict_chunks / chunks if chunks else 0.0


class BuildCost(NamedTuple):
    """Where one SSTable build spent its time, and where its rows' cells
    came from: ``encode_s`` cuts blocks and emits their payloads,
    ``compress_s`` runs zlib, ``write_s`` spills blocks to the data file.
    ``rows_from_columns`` counts rows whose cells reached the emitter as
    columns (a flushed run, a compacted block);
    ``rows_resplit`` rows the codec split out of row bytes."""

    encode_s: float = 0.0
    compress_s: float = 0.0
    write_s: float = 0.0
    rows_from_columns: int = 0
    rows_resplit: int = 0


#: Process-wide SSTable id allocator: block-cache keys must survive the
#: CPython id() recycling that follows garbage collection.
_uid_counter = itertools.count(1)


class SSTable:
    """One immutable sorted run of ``(key, encoded_row)`` entries."""

    __slots__ = (
        "_block_keys", "_blocks", "_index_bytes", "_n_rows", "compressed",
        "_tombstones", "_bloom", "_path", "_offsets", "_uid", "_block_cache",
        "_handle", "_codec", "_zone_maps", "_layouts", "_block_rows",
        "_dict_chunks", "_plain_chunks", "_blocks_skipped", "_key_range", "_cost",
    )

    def __init__(
        self,
        sorted_items: Sequence[Tuple[object, bytes]],
        codec: ColumnarCodec,
        compressed: bool = True,
        tombstones: frozenset = frozenset(),
        path=None,
        block_cache: Optional[BlockCache] = None,
    ) -> None:
        """Build an SSTable; with ``path`` the data blocks live on disk.

        ``codec`` is the owning column family's
        :class:`~repro.nosqldb.columnar.ColumnarCodec`, which writes and
        reads every block.  ``path`` is the data file to write (parent
        directory must exist); block reads then really hit the
        filesystem.  ``block_cache`` (usually the owning column
        family's) memoises decoded blocks so repeated reads skip
        decompression; without one every read decodes its block from
        scratch.  Under ``REPRO_CHECK=1`` every block is decoded and
        compared with its input rows before it is stored.

        ``sorted_items`` are ``(key, encoded_row)`` entries in key order,
        or a column feed (:func:`run_feed`, :func:`compact`) that hands
        the emitter cells the write loop or an earlier build already
        holds as columns.
        """
        feed = sorted_items if isinstance(sorted_items, _CellFeed) else _RowFeed(sorted_items)
        keys = feed.keys
        self.compressed = compressed
        self._block_keys: List[object] = []
        self._blocks: List[bytes] = []
        self._n_rows = len(keys)
        self._index_bytes = 0
        self._tombstones = tombstones
        self._path = path
        self._offsets: List[Tuple[int, int]] = []
        self._uid = next(_uid_counter)
        self._block_cache = block_cache
        self._handle = None
        self._codec = codec
        self._zone_maps: List[Dict[str, tuple]] = []
        self._layouts: List[ChunkLayout] = []
        self._block_rows: List[int] = []
        self._dict_chunks = 0
        self._plain_chunks = 0
        self._blocks_skipped = 0
        self._bloom = BloomFilter(len(keys))
        self._bloom.add_all(keys)
        edges = list(tombstones)
        if keys:
            edges += (keys[0], keys[-1])
        self._key_range = (min(edges), max(edges)) if edges else None
        self._cost = self._build(feed)
        if path is not None:
            began = wall_clock()
            self._spill_to_disk()
            self._cost = self._cost._replace(write_s=wall_clock() - began)
        _M_SSTABLES_WRITTEN.inc()
        _M_SSTABLE_ROWS.inc(self._n_rows)

    @property
    def build_cost(self) -> BuildCost:
        """What building this table cost (:class:`BuildCost`)."""
        return self._cost

    def _spill_to_disk(self) -> None:
        offset = 0
        with open(self._path, "wb") as handle:
            for block in self._blocks:
                handle.write(block)
                self._offsets.append((offset, len(block)))
                offset += len(block)
        self._blocks = []

    def _block_data(self, index: int) -> bytes:
        if self._path is None:
            return self._blocks[index]
        offset, length = self._offsets[index]
        # One persistent handle per table (Cassandra pools SSTable
        # readers); reopening the data file per block read dominated the
        # disk-backed read path before.
        if self._handle is None:
            self._handle = open(self._path, "rb")
        self._handle.seek(offset)
        return self._handle.read(length)

    def close(self) -> None:
        """Release the persistent file handle (reads reopen on demand)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def delete_file(self) -> None:
        """Remove the backing data file (after compaction superseded it)."""
        self.close()
        if self._block_cache is not None:
            self._block_cache.drop_table(self._uid)
        if self._path is not None:
            import os

            try:
                os.remove(self._path)
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------
    def _build(self, feed) -> BuildCost:
        codec = self._codec
        decoded = codec.zone_memo()
        checked = checks_enabled()
        if checked:
            # Lazy: the checkers import this module.
            from repro.analysis.sstable_check import check_sealed_block
        began = wall_clock()
        compress_s = 0.0
        for first_key, encoded_keys, start, stop in _cut_blocks(feed.keys, feed.lengths()):
            payload, zones, dict_chunks, plain_chunks, layout = feed.encode(
                codec, encoded_keys, start, stop, decoded
            )
            self._dict_chunks += dict_chunks
            self._plain_chunks += plain_chunks
            if checked:
                check_sealed_block(
                    codec, payload, layout, encoded_keys, feed.rows(start, stop),
                    f"sstable/block[{len(self._blocks)}]",
                ).raise_if_violations()
            if self.compressed:
                compress_began = wall_clock()
                body = zlib.compress(payload, COMPRESSION_LEVEL)
                compress_s += wall_clock() - compress_began
            else:
                body = payload
            self._block_keys.append(first_key)
            self._blocks.append(_TAG + body)
            self._zone_maps.append(zones)
            self._layouts.append(layout)
            self._block_rows.append(stop - start)
            self._index_bytes += len(encoded_keys[0]) + 8  # key + offset
        return BuildCost(
            wall_clock() - began - compress_s, compress_s, 0.0,
            feed.from_columns, feed.resplit,
        )

    # ------------------------------------------------------------------
    def _block_payload(self, index: int) -> bytes:
        """Stored block ``index``'s uncompressed payload.  Raises
        CorruptBlock when its format tag is not ``'C'``."""
        data = self._block_data(index)
        if data[0] != TAG_COLUMNAR:
            raise CorruptBlock(
                f"SSTable block {index} has format tag 0x{data[0]:02x}, "
                f"not the columnar 0x{TAG_COLUMNAR:02x}"
            )
        payload = data[1:]
        if self.compressed:
            payload = zlib.decompress(payload)
        return payload

    def _decoded_obj(self, index: int) -> ColumnVectors:
        """Block ``index`` as :class:`ColumnVectors` (the key directory,
        plus column chunks parsed as reads touch them), through the block
        cache, so one decode serves scans and fetches alike."""
        cache = self._block_cache
        if cache is not None:
            cached = cache.get(self._uid, index)
            if cached is not None:
                return cached
        obj = self._decode(index)
        if cache is not None:
            cache.put(self._uid, index, obj)
        return obj

    def _decode(self, index: int) -> ColumnVectors:
        """Block ``index`` decoded (see :meth:`_decoded_obj`), past the
        block cache — what compaction reads its inputs with."""
        return self._codec.decode_block(self._block_payload(index), self._layouts[index])

    def locate(self, keys: Iterable) -> Dict[object, object]:
        """Where this table holds each of ``keys``: bloom filter, sparse
        index, then a bisect on the block's sorted keys — one block
        decode per touched block, no row built.

        A key maps to ``(ColumnVectors, position)``.  Tombstoned and
        absent keys are simply missing from the result (call
        :meth:`is_deleted` to tell the two apart).
        """
        found: Dict[object, object] = {}
        if not self._block_keys:
            return found
        block_keys = self._block_keys
        tombstones = self._tombstones
        bloom = self._bloom
        by_block: Dict[int, List] = {}
        for key in keys:
            if key in tombstones or not bloom.might_contain(key):
                continue
            index = bisect.bisect_right(block_keys, key) - 1
            if index >= 0:
                by_block.setdefault(index, []).append(key)
        for index, wanted in by_block.items():
            block = self._decoded_obj(index)
            entry_keys = block.keys
            n_entries = len(entry_keys)
            for key in wanted:
                position = bisect.bisect_left(entry_keys, key)
                if position < n_entries and entry_keys[position] == key:
                    found[key] = (block, position)
        return found

    def is_deleted(self, key) -> bool:
        return key in self._tombstones

    def items(self) -> Iterator[Tuple[object, bytes]]:
        """Every ``(key, encoded row)`` entry in key order — for the
        checkers, whose business is encoded row bytes (compaction merges
        column chunks, see :func:`compact`)."""
        for index in range(len(self._block_keys)):
            yield from zip(*self._decoded_obj(index).all_rows())

    def key_range(self) -> Optional[Tuple[object, object]]:
        """``(lowest, highest)`` key this table holds a row or a
        tombstone for (None for an empty table): two LSM layers whose
        ranges are disjoint cannot shadow each other."""
        return self._key_range

    def scan_batches(
        self, bound, shadow: Optional[set] = None, record: Optional[set] = None,
    ) -> Iterator[Batch]:
        """This table's live rows as one column batch per block, under an
        optional pushed predicate (duck-typed
        :class:`~repro.query.pushdown.BoundPredicate`) — no row is built.

        Per block: the zone check, then the predicate narrows the
        batch's selection on column vectors, then LSM shadowing narrows
        it by key.  ``shadow`` holds the keys newer layers of the scan
        carry (rows and tombstones), or is None when no newer layer overlaps
        this table's key range; ``record`` is the set this table's keys
        must be added to because an *older* layer overlaps it (None
        otherwise).  A block whose zone maps refute the predicate is
        skipped without being read — unless its keys must be recorded:
        a newer predicate-failing version still hides the older one.
        """
        names = self._codec.column_names
        for index in range(len(self._block_keys)):
            if bound is not None and not bound.block_may_match(self._zone_maps[index]):
                bound.note_pruned(self._block_rows[index])
                if record is None:
                    self._blocks_skipped += 1
                    _M_BLOCKS_SKIPPED.inc()
                    bound.note_skipped(1)
                else:
                    record.update(self._decoded_obj(index).keys)
                continue
            obj = self._decoded_obj(index)
            keys = obj.keys
            batch = VectorBatch(len(keys), obj.typed, names)
            if bound is not None:
                bound.narrow(batch)
            if shadow and not shadow.isdisjoint(keys):
                positions = batch.sel if batch.sel is not None else range(batch.n)
                batch.sel = [i for i in positions if keys[i] not in shadow]
            if record is not None:
                record.update(keys)
            if batch.sel is None or batch.sel:
                yield batch

    def __len__(self) -> int:
        return self._n_rows

    @property
    def size_bytes(self) -> int:
        if self._path is not None:
            data = sum(length for _, length in self._offsets)
        else:
            data = sum(len(b) for b in self._blocks)
        return data + self._index_bytes + self._bloom.size_bytes + SSTABLE_OVERHEAD

    @property
    def tombstones(self) -> frozenset:
        return self._tombstones

    @property
    def blocks_skipped(self) -> int:
        return self._blocks_skipped

    def stats(self) -> SSTableStats:
        """A read-only :class:`SSTableStats` snapshot (no block reads)."""
        if self._path is not None:
            data = sum(length for _, length in self._offsets)
        else:
            data = sum(len(b) for b in self._blocks)
        return SSTableStats(
            rows=self._n_rows,
            blocks=len(self._block_keys),
            compressed=self.compressed,
            on_disk=self._path is not None,
            tombstones=len(self._tombstones),
            data_bytes=data,
            index_bytes=self._index_bytes,
            bloom_bytes=self._bloom.size_bytes,
            size_bytes=data + self._index_bytes + self._bloom.size_bytes + SSTABLE_OVERHEAD,
            dict_chunks=self._dict_chunks,
            plain_chunks=self._plain_chunks,
            blocks_skipped=self._blocks_skipped,
        )

    def __repr__(self) -> str:
        where = "disk" if self._path is not None else "memory"
        return (
            f"SSTable(rows={self._n_rows}, blocks={len(self._block_keys)}, "
            f"compressed={self.compressed}, {where})"
        )


def _cut_blocks(keys: Sequence, lengths: Iterable[int]):
    """Cut sorted entries — ``keys`` beside their encoded rows'
    ``lengths`` — into blocks of :data:`BLOCK_BYTES` row-major entry
    bytes, yielding ``(first_key, encoded_keys, start, stop)`` per block
    of entries ``start:stop``.  A block's size is counted from the entry
    lengths; no row-major entry is ever assembled."""
    budget = BLOCK_BYTES
    encoded_keys: List[bytes] = []
    size = 0
    start = 0
    for stop, (key, row_length) in enumerate(zip(keys, lengths), 1):
        # encode_key, its int case (the engines' usual key) inlined
        key_bytes = b"\x01" + encode_varint(key) if type(key) is int else encode_key(key)
        # len(encode_varint(n)), inlined: zigzag doubles a length
        entry_len = len(key_bytes) + row_length + (
            1 if row_length < 64 else 2 if row_length < 8192
            else len(encode_varint(row_length))
        )
        size += entry_len + (
            1 if entry_len < 64 else 2 if entry_len < 8192
            else len(encode_varint(entry_len))
        )
        encoded_keys.append(key_bytes)
        if size >= budget:
            yield keys[start], encoded_keys, start, stop
            encoded_keys = []
            size = 0
            start = stop
    if encoded_keys:
        yield keys[start], encoded_keys, start, len(keys)


# ----------------------------------------------------------------------
# feeders: where a build's rows come from
# ----------------------------------------------------------------------
class _RowFeed:
    """Rows that exist only as bytes: sorted ``(key, encoded_row)``
    entries, which the codec's row split turns into columns
    (:meth:`ColumnarCodec.encode_block`)."""

    from_columns = 0

    def __init__(self, items: Sequence[Tuple[object, bytes]]) -> None:
        self._items = items
        self.keys = [key for key, _ in items]
        self.resplit = 0

    def lengths(self) -> Iterator[int]:
        return (len(row) for _, row in self._items)

    def rows(self, start: int, stop: int) -> List[bytes]:
        return [row for _, row in self._items[start:stop]]

    def encode(self, codec: ColumnarCodec, encoded_keys, start: int, stop: int, decoded):
        self.resplit += stop - start
        return codec.encode_block(encoded_keys, self.rows(start, stop), decoded)


class _View(NamedTuple):
    """One row source of a :class:`_CellFeed` — a flushed run or a
    compacted input block — as cells.  Per schema column ``cols`` holds
    None (no cell) or ``(rows, raws, stamps, bound)``: the positions
    holding a cell (None: every row), their raw values, their 8-byte
    timestamps as one byte string, and their bound values when each is
    exactly of the type's ``value_types`` (else None).  ``orders`` holds
    each row's cell schema positions."""

    lens: Sequence[int]
    row: Callable[[int], bytes]
    orders: Sequence[Tuple[int, ...]]
    cols: Sequence[Optional[tuple]]


class _CellFeed:
    """Rows the emitter gets as columns: ``segments`` of consecutive
    positions ``(source, i0, i1)`` in key order, each source turned into
    a :class:`_View` by ``make_view`` on first touch and released after
    its last segment, so a build holds the cells of a block or two, not
    the table's."""

    def __init__(self, keys: List, segments: List[tuple], make_view) -> None:
        self.keys = keys
        self._segments = segments
        self._starts = list(itertools.accumulate(
            [i1 - i0 for _, i0, i1 in segments], initial=0
        ))
        self._make_view = make_view
        self._views: Dict[object, _View] = {}
        self._last = {source: s for s, (source, _, _) in enumerate(segments)}
        self._passed = 0  # segments wholly before the current block
        self.from_columns = 0
        self.resplit = 0  # every row comes as cells

    def _view(self, source) -> _View:
        view = self._views.get(source)
        if view is None:
            view = self._views[source] = self._make_view(source)
        return view

    def lengths(self) -> Iterator[int]:
        for source, i0, i1 in self._segments:
            yield from self._view(source).lens[i0:i1]

    def _pieces(self, start: int, stop: int) -> List[Tuple[_View, int, int]]:
        """Entries ``start:stop`` as ``(view, i0, i1)`` pieces; views
        whose last segment ends at or before ``start`` are released."""
        starts, segments = self._starts, self._segments
        while self._passed < len(segments) and starts[self._passed + 1] <= start:
            source = segments[self._passed][0]
            if self._last[source] == self._passed:
                self._views.pop(source, None)
            self._passed += 1
        pieces = []
        s = self._passed
        while s < len(segments) and starts[s] < stop:
            source, i0, i1 = segments[s]
            offset = starts[s] - i0
            pieces.append((
                self._view(source), max(i0, start - offset), min(i1, stop - offset)
            ))
            s += 1
        return pieces

    def rows(self, start: int, stop: int) -> List[bytes]:
        return [
            view.row(i)
            for view, i0, i1 in self._pieces(start, stop)
            for i in range(i0, i1)
        ]

    def encode(self, codec: ColumnarCodec, encoded_keys, start: int, stop: int, decoded):
        pieces = self._pieces(start, stop)
        self.from_columns += stop - start
        ts_cols, raw_cols, orders, typed = _gather(len(codec.column_names), pieces)
        return codec.encode_columns(encoded_keys, ts_cols, raw_cols, orders, decoded, typed)


def _gather(n_columns: int, pieces) -> tuple:
    """One block's ``(ts_cols, raw_cols, orders, typed)`` for
    :meth:`ColumnarCodec.encode_columns`, sliced out of its pieces'
    column views: per column a bisect, a slice and an extend per piece,
    nothing per cell."""
    ts_cols: List[List[bytes]] = [[] for _ in range(n_columns)]
    raw_cols: List[List[bytes]] = [[] for _ in range(n_columns)]
    typed: List[Optional[List]] = [[] for _ in range(n_columns)]
    orders: List = []
    for view, i0, i1 in pieces:
        orders += view.orders[i0:i1]
        for index, col in enumerate(view.cols):
            if col is None:
                continue
            here, raws, stamps, bound = col
            if here is None:
                k0, k1 = i0, i1
            else:
                k0 = bisect.bisect_left(here, i0)
                k1 = bisect.bisect_left(here, i1, k0)
                if k0 == k1:
                    continue
            raw_cols[index] += raws[k0:k1]
            ts_cols[index].append(stamps[8 * k0:8 * k1])
            if typed[index] is not None:
                if bound is None:
                    typed[index] = None
                else:
                    typed[index] += bound[k0:k1]
    return ts_cols, raw_cols, orders, typed


def run_feed(runs: Sequence[tuple], codec: ColumnarCodec) -> _CellFeed:
    """The flush feeder of a memtable filled only by proven-fresh chunks:
    its ``runs`` (``(run, a, b)`` — rows ``a:b`` of a
    :class:`~repro.nosqldb.memtable.Run`) are already in key order, so
    the run's encoded cell columns go to the emitter as they are, with
    no sort and no row split."""
    keys: List = []
    for run, a, b in runs:
        keys += run.keys[a:b]
    n_columns = len(codec.column_names)
    return _CellFeed(
        keys,
        [(index, a, b) for index, (_, a, b) in enumerate(runs)],
        lambda index: _run_view(runs[index][0], n_columns),
    )


def _run_view(run, n_columns: int) -> _View:
    """A run's cells: its cell columns as they are, timestamps generated
    from its first tick (row ``i`` was stamped ``tick + i``)."""
    n = len(run.keys)
    stamps = b"".join([tick.to_bytes(8, "little") for tick in range(run.tick, run.tick + n)])
    cols: List[Optional[tuple]] = [None] * n_columns
    sparse = False
    for position, cells, bound in zip(run.positions, run.cells, run.typed):
        if None in cells:
            sparse = True
            here = [i for i, cell in enumerate(cells) if cell is not None]
            cols[position] = (
                here,
                [cells[i] for i in here],
                b"".join([stamps[8 * i:8 * i + 8] for i in here]),
                None if bound is None else [bound[i] for i in here],
            )
        else:
            cols[position] = (None, cells, stamps, bound)
    if sparse:  # a row's cells are its non-None ones, in statement order
        present = [[cell is not None for cell in cells] for cells in run.cells]
        shapes: Dict[tuple, Tuple[int, ...]] = {}
        orders = []
        for flags in zip(*present):
            order = shapes.get(flags)
            if order is None:
                order = shapes[flags] = tuple(itertools.compress(run.positions, flags))
            orders.append(order)
    else:
        orders = [tuple(run.positions)] * n
    return _View(list(map(len, run.rows)), run.rows.__getitem__, orders, cols)


def _block_view(block: ColumnVectors, codec: ColumnarCodec) -> _View:
    """A compaction input block's rows as cells: its chunks, each row's
    order translated from block slots to schema positions."""
    n = len(block)
    chunks = [block.chunk_cells(slot) for slot in range(len(block.names))]
    # A row's length: varint cell count, then per cell its encoded name,
    # its 8-byte timestamp and its raw value.
    cell_heads = [len(name) + 8 for _, _, _, name in chunks]
    heads: Dict[tuple, int] = {}
    lens = []
    for order in block.orders:
        head = heads.get(order)
        if head is None:
            head = heads[order] = len(encode_varint(len(order))) + sum(
                cell_heads[slot] for slot in order
            )
        lens.append(head)
    for here, raw_vec, _, _ in chunks:
        if len(here) == n:
            lens = list(map(operator.add, lens, map(len, raw_vec)))
        else:
            for i in here:
                lens[i] += len(raw_vec[i])
    schema = {name: index for index, name in enumerate(codec.column_names)}
    positions = [schema[name] for name in block.names]
    orders = block.orders
    if positions != list(range(len(positions))):
        translated: Dict[tuple, Tuple[int, ...]] = {}
        orders = []
        for order in block.orders:
            moved = translated.get(order)
            if moved is None:
                moved = translated[order] = tuple(positions[slot] for slot in order)
            orders.append(moved)
    cols: List[Optional[tuple]] = [None] * len(codec.column_names)
    for position, (here, raw_vec, stamps, _) in zip(positions, chunks):
        if len(here) == n:
            cols[position] = (None, raw_vec, stamps, None)
        else:
            cols[position] = (here, [raw_vec[i] for i in here], stamps, None)
    return _View(lens, block.materialize, orders, cols)


def _merge_feed(tables: Sequence[SSTable], codec: ColumnarCodec) -> _CellFeed:
    """Compaction's feeder: the newest version of every key across
    ``tables`` (oldest first), in key order, as segments of the input
    blocks — a k-way merge over the blocks' key directories.  A key's
    version is the newest table holding a row for it (a table's own
    tombstone does not hide its row); a newer table's tombstone deletes
    it."""
    blocks = [
        [table._decode(index) for index in range(len(table._block_keys))]
        for table in tables
    ]
    deleted_by: Dict[object, int] = {}  # key -> newest table tombstoning it
    for rank, table in enumerate(tables):
        deleted_by.update(dict.fromkeys(table.tombstones, rank))

    def stream(rank: int):
        for number, block in enumerate(blocks[rank]):
            for i, key in enumerate(block.keys):
                yield key, -rank, number, i  # a key's newest version first

    keys: List = []
    segments: List[list] = []
    previous = last = object()
    for key, newest, number, i in heapq.merge(*map(stream, range(len(blocks)))):
        if key == previous:
            continue  # an older version
        previous = key
        if deleted_by.get(key, -1) > -newest:
            continue
        keys.append(key)
        source = (-newest, number)
        if source == last and segments[-1][2] == i:
            segments[-1][2] = i + 1
        else:
            segments.append([source, i, i + 1])
            last = source

    def make_view(source) -> _View:
        rank, number = source
        block, blocks[rank][number] = blocks[rank][number], None
        return _block_view(block, codec)

    return _CellFeed(keys, [tuple(segment) for segment in segments], make_view)


def compact(
    tables: Sequence[SSTable],
    codec: ColumnarCodec,
    compressed: bool = True,
    path=None,
    block_cache: Optional[BlockCache] = None,
) -> SSTable:
    """Size-tiered compaction: merge runs newest-last wins, drop shadowed rows.

    Tombstones are applied (deleted keys vanish) and then discarded — the
    result is a single clean run, like a Cassandra major compaction.  The
    surviving rows reach the merged table as cells: the input blocks'
    chunks go to the emitter as they are (a row is rematerialized only
    under ``REPRO_CHECK=1``).  The superseded tables' cached blocks are
    released (``delete_file``); the merged table starts cold under
    ``block_cache``.
    """
    result = SSTable(
        _merge_feed(tables, codec),
        codec,
        compressed=compressed,
        path=path,
        block_cache=block_cache,
    )
    for table in tables:
        table.delete_file()
    return result
