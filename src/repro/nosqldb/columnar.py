"""Column-major SSTable block codec with zone maps and dictionaries.

Every SSTable block is stored in the layout of this module, the one
sketched in *Columnar Formats for Schemaless LSM-based Document
Stores*: within one block, cell values are grouped into per-column
vectors so a pushed-down predicate touches only the vectors it reads,
whole blocks are skipped via per-column zone maps, and a read hands the
block upward as a column batch — a scan the whole block
(:meth:`SSTable.scan_batches`), a fetch the block with the positions of
its keys selected (:meth:`SSTable.locate`) — so rows are built from the
typed vectors once, at the end of the statement, for the columns it
returns, and only the chunks of the columns a read touches are ever
parsed.

The layout is exact — no information is dropped.  A columnar block
records, per row, the original cell *order* (Cassandra writes cells in
statement order, not schema order) and, per cell, the raw value bytes
and raw 8-byte timestamp.  :meth:`ColumnVectors.materialize` therefore
reproduces the original encoded row byte-for-byte, which the
``sstable.columnar-roundtrip`` invariant and the row-cache agreement
checker both rely on.  The write loop only ever stores rows whose cells
name distinct schema columns, so every row fits the directory.

Block payload layout (before the 1-byte format tag and compression)::

    varint n_rows
    per row:    encode_key(key) · varint n_cells · n_cells x varint col_idx
    varint n_cols
    per column: encode_text(name) · flag(0=plain|1=dict)
                8-byte timestamp per present cell (row order)
                plain: encode_bytes(raw value) per present cell
                dict:  encode_bytes_vector(distinct raws, first-occurrence
                       order) · varint dictionary index per present cell

Zone maps are *not* serialized: like the sparse block index they are an
in-memory structure rebuilt whenever an SSTable is (re)built.  Each
zone entry is ``(lo, hi, distinct)`` over the block's decoded non-NULL
values; ``distinct`` is an exact frozenset when the block has at most
:data:`ZONE_DISTINCT_MAX` distinct values (else None), and a column
with *no* non-NULL value in the block gets ``(None, None, frozenset())``
so equality predicates can skip it outright.  Set-typed columns and
columns containing NaN are excluded (unordered / unorderable).

Neither is a block's :class:`ChunkLayout` — where each column chunk
starts.  The payload stores no chunk lengths, but the encoder knows the
offsets as it concatenates, and the SSTable keeps them beside the zone
maps so a decoded block can parse one chunk without walking the ones
before it.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.nosqldb.types import CQLType, SetType
from repro.storage.btree import decode_key
from repro.storage.encoding import (
    decode_bytes_vector,
    decode_text,
    encode_bytes,
    encode_text,
)
from repro.storage.varint import decode_varint, encode_varint

#: First byte of every stored block: the format tag ('C').  The tag
#: sits *outside* compression, so a reader rejects a block of any other
#: tag before paying zlib.
TAG_COLUMNAR = 0x43

#: Dictionary-encode a column chunk only when it is populated enough
#: for the dictionary to amortize (>= DICT_MIN_ROWS present cells) and
#: genuinely low-cardinality (distinct <= present / DICT_MAX_RATIO).
DICT_MIN_ROWS = 8
DICT_MAX_RATIO = 2

#: Keep the exact distinct-value set in a zone map up to this many
#: values.  DWARF dimension members are low-cardinality per block, and
#: exact membership prunes equality/IN predicates that min/max ranges
#: cannot (dense key domains make lo<=v<=hi nearly always true).  Sized
#: to stay useful at columnar block granularity (tens of rows per
#: block — see ``BLOCK_BYTES`` in the sstable module).
ZONE_DISTINCT_MAX = 64


class ChunkLayout(NamedTuple):
    """Where a columnar payload's column chunks are: the present
    columns' ``names`` in chunk order, and the payload offset each chunk
    ``starts`` at.  :meth:`ColumnarCodec.encode_columns` knows both as it
    concatenates; like zone maps they are kept in memory beside the
    block, never serialized."""

    names: Tuple[str, ...]
    starts: Tuple[int, ...]


class ColumnarCodec:
    """Schema-aware block transcoder for one column family.

    Cell values in the Cassandra row codec are not self-delimiting, so
    splitting an encoded row into cells needs the column types; the
    owning column family builds one codec from its schema and shares it
    with every SSTable it flushes or compacts.
    """

    __slots__ = ("_types", "_encoded_names", "column_names", "_cells", "_zoned")

    def __init__(self, columns: Sequence[Tuple[str, CQLType]]) -> None:
        self._types: Dict[str, CQLType] = dict(columns)
        self._encoded_names = {name: encode_text(name) for name, _ in columns}
        self.column_names: Tuple[str, ...] = tuple(name for name, _ in columns)
        # The write path's name table: a cell's *encoded* name bytes
        # resolve its schema position and the ``span`` that skips its
        # value, so no name is decoded.
        self._cells = {
            self._encoded_names[name]: (index, cql_type.span)
            for index, (name, cql_type) in enumerate(columns)
        }
        self._zoned = tuple(not isinstance(t, SetType) for _, t in columns)

    # -- typed decode ---------------------------------------------------
    def decode_value(self, name: str, raw: bytes):
        value, _ = self._types[name].decode(raw, 0)
        return value

    def decode_column(self, name: str, raws: Sequence[Optional[bytes]]) -> List:
        """Column ``name``'s raw cells (None: no cell) decoded, each distinct
        raw once (DWARF keys, schema ids and flags repeat): the one typed
        decode of block vectors, fetches and memtable rows."""
        decode = self.decode_value
        memo: Dict[bytes, object] = {}
        vector = []
        append = vector.append
        for raw in raws:
            if raw is None:
                append(None)
                continue
            value = memo.get(raw)
            if value is None:  # no type decodes to None
                value = memo[raw] = decode(name, raw)
            append(value)
        return vector

    # -- block encode --------------------------------------------------
    def zone_memo(self) -> List[Dict[bytes, object]]:
        """A fresh per-column ``raw -> value`` memo for one SSTable
        build: zone entries decode each distinct value once per build,
        not once per block it recurs in."""
        return [{} for _ in self.column_names]

    def encode_block(
        self,
        encoded_keys: Sequence[bytes],
        rows: Sequence[bytes],
        decoded: List[Dict[bytes, object]],
    ):
        """Transpose sorted entries (``encode_key`` bytes beside encoded
        rows) into one columnar payload; ``decoded`` is the build's
        :meth:`zone_memo`.  The row feeder: :meth:`encode_columns` over
        :meth:`split_rows`, for rows that exist only as bytes."""
        return self.encode_columns(encoded_keys, *self.split_rows(rows), decoded)

    def split_rows(self, rows: Sequence[bytes]):
        """Split encoded rows into ``(ts_cols, raw_cols, orders)``: per
        schema column the timestamp and raw value slices of its cells in
        row order, and per row its cells' schema positions in cell order.

        One pass over the row bytes: each cell's encoded name is looked
        up in the name table, its value is skipped with the type's
        ``span``, and the timestamp and raw value slices go straight
        onto that column's vectors.  No name or value is decoded.  A
        cell naming a column outside the schema is an internal error: the
        write loop stores no such row.
        """
        n_columns = len(self.column_names)
        ts_cols: List[List[bytes]] = [[] for _ in range(n_columns)]
        raw_cols: List[List[bytes]] = [[] for _ in range(n_columns)]
        orders: List[Tuple[int, ...]] = []
        lookup = self._cells.get
        for row in rows:
            count = row[0]
            if count < 0x80:  # counts are non-negative: zigzag is << 1
                count >>= 1
                offset = 1
            else:
                count, offset = decode_varint(row, 0)
            order = []
            for _ in range(count):
                length = row[offset]
                if length < 0x80:
                    name_end = offset + 1 + (length >> 1)
                else:
                    length, name_end = decode_varint(row, offset)
                    name_end += length
                cell = lookup(row[offset:name_end])
                if cell is None:
                    raise ValueError(f"stored row names a column outside the schema: "
                                     f"{bytes(row[offset:name_end])!r}")
                index, span = cell
                value_at = name_end + 8
                offset = span(row, value_at)
                ts_cols[index].append(row[name_end:value_at])
                raw_cols[index].append(row[value_at:offset])
                order.append(index)
            orders.append(tuple(order))
        return ts_cols, raw_cols, orders

    def encode_columns(
        self,
        encoded_keys: Sequence[bytes],
        ts_cols: Sequence[Sequence[bytes]],
        raw_cols: Sequence[Sequence[bytes]],
        orders: Sequence[Tuple[int, ...]],
        decoded: List[Dict[bytes, object]],
        typed: Optional[Sequence[Optional[Sequence]]] = None,
    ):
        """The one block emitter: a block given column-wise into one
        columnar payload.  Per schema column, ``raw_cols`` holds its
        cells' raw values in row order and ``ts_cols`` byte strings that
        concatenate to their 8-byte timestamps; ``orders`` holds each
        row's cell schema positions in cell order.  ``decoded`` is the build's
        :meth:`zone_memo`.  ``typed``, where given, holds per column the
        values its raws encode, each exactly of the type's ``value_types``
        (None where unknown): zone entries then come from them, and
        only the other columns decode their distinct raws.

        Returns ``(payload, zones, dict_chunks, plain_chunks, layout)``
        where ``zones`` maps zone-eligible column names to their
        ``(lo, hi, distinct)`` entries for this block and ``layout`` is
        the block's :class:`ChunkLayout`.  A row repeating a column is
        an internal error (the directory could not list its cells
        exactly, and the write loop stores no such row).
        """
        n_columns = len(self.column_names)
        present = [index for index in range(n_columns) if raw_cols[index]]
        slot_bytes: List[bytes] = [b""] * n_columns
        for slot, index in enumerate(present):
            slot_bytes[index] = encode_varint(slot)
        # Rows written by one statement share a cell order: build (and
        # vet) each distinct directory entry once.
        directory: Dict[Tuple[int, ...], bytes] = dict.fromkeys(orders)
        for order in directory:
            if len(set(order)) != len(order):
                raise ValueError(f"stored row repeats a column: cell order {order}")
            directory[order] = encode_varint(len(order)) + b"".join(
                [slot_bytes[index] for index in order]
            )
        parts = [encode_varint(len(orders))]
        parts.extend(chain.from_iterable(zip(encoded_keys, map(directory.__getitem__, orders))))

        parts.append(encode_varint(len(present)))
        # The directory and each chunk are joined on their own, so every
        # chunk's start offset falls out of the concatenation.
        pieces = [b"".join(parts)]
        position = len(pieces[0])
        starts: List[int] = []
        dict_chunks = 0
        zones: Dict[str, tuple] = {}
        for index in present:
            name = self.column_names[index]
            values = raw_cols[index]
            distinct = dict.fromkeys(values)  # first-occurrence order
            use_dict = (
                len(values) >= DICT_MIN_ROWS
                and len(distinct) <= len(values) // DICT_MAX_RATIO
            )
            parts = [self._encoded_names[name], b"\x01" if use_dict else b"\x00"]
            parts.extend(ts_cols[index])
            if self._zoned[index]:
                bound = typed[index] if typed is not None else None
                if bound is not None:
                    zones[name] = _zone_of(set(bound))
                else:
                    zone = self._zone_entry(name, distinct, decoded[index])
                    if zone is not None:
                        zones[name] = zone
            if use_dict:
                dict_chunks += 1
                # encode_bytes_vector(distinct), pieces joined once
                parts.append(encode_varint(len(distinct)))
                parts.extend(_length_prefixed(distinct))
                for slot, raw in enumerate(distinct):
                    distinct[raw] = encode_varint(slot)
                parts.extend(map(distinct.__getitem__, values))
            else:
                parts.extend(_length_prefixed(values))
            piece = b"".join(parts)
            starts.append(position)
            position += len(piece)
            pieces.append(piece)
        # Columns wholly absent from the block are exactly representable
        # too: an all-NULL zone entry lets equality predicates skip it.
        for index, name in enumerate(self.column_names):
            if not raw_cols[index] and self._zoned[index]:
                zones[name] = (None, None, frozenset())
        names = (
            self.column_names if len(present) == n_columns
            else tuple(self.column_names[index] for index in present)
        )
        return (
            b"".join(pieces), zones, dict_chunks, len(present) - dict_chunks,
            ChunkLayout(names, tuple(starts)),
        )

    def _zone_entry(self, name: str, distinct_raw, memo: Dict[bytes, object]):
        decode = self._types[name].decode
        values = []
        for raw in distinct_raw:
            value = memo.get(raw)
            if value is None:  # no type decodes to None
                value = memo[raw] = decode(raw, 0)[0]
            if value != value:
                return None  # NaN poisons ordering: no zone map
            values.append(value)
        return _zone_of(values)

    # -- block decode --------------------------------------------------
    def decode_block(
        self, payload: bytes, layout: Optional[ChunkLayout] = None
    ) -> "ColumnVectors":
        """Parse one columnar payload's directory (keys and cell orders)
        into a :class:`ColumnVectors`; column chunks parse on first
        touch, from the offsets in ``layout``.

        Without a ``layout`` (a checker handed bare payload bytes) the
        chunks are walked once, in order, to find where each starts.

        This is the cold-read hot path — every block a read misses in
        the cache comes through here — so the varint/key/length reads
        are inlined (one-byte fast path, the overwhelmingly common case
        for directory entries) instead of calling the shared decoders
        per value.
        """
        buf = payload
        o = 0
        # n_rows (counts are non-negative, so zigzag is value << 1)
        b = buf[o]
        o += 1
        if b < 0x80:
            n_rows = b >> 1
        else:
            u = b & 0x7F
            shift = 7
            while True:
                b = buf[o]
                o += 1
                u |= (b & 0x7F) << shift
                if b < 0x80:
                    break
                shift += 7
            n_rows = u >> 1

        keys: List[object] = []
        keys_append = keys.append
        orders: List[Tuple[int, ...]] = []
        orders_append = orders.append
        entries: Dict[bytes, Tuple[int, ...]] = {}
        for _ in range(n_rows):
            tag = buf[o]
            o += 1
            if tag == 0x01:  # int key (the engines' usual primary key)
                b = buf[o]
                o += 1
                if b < 0x80:
                    u = b
                else:
                    u = b & 0x7F
                    shift = 7
                    while True:
                        b = buf[o]
                        o += 1
                        u |= (b & 0x7F) << shift
                        if b < 0x80:
                            break
                        shift += 7
                keys_append((u >> 1) if not u & 1 else -((u + 1) >> 1))
            elif tag == 0x02:  # text key
                b = buf[o]
                if b < 0x80:
                    length = b >> 1
                    o += 1
                else:
                    length, o = decode_varint(buf, o)
                end = o + length
                keys_append(bytes(buf[o:end]).decode("utf-8"))
                o = end
            else:
                key, o = decode_key(buf, o - 1)
                keys_append(key)
            # Rows written by one statement share a cell order, so most
            # directory entries repeat an earlier one byte for byte.
            # Only entries made of one-byte varints are memoized: a hit
            # on the first ``1 + n_cells`` bytes then proves this entry
            # is all one-byte too, i.e. exactly those bytes.
            b = buf[o]
            if b < 0x80:
                end = o + 1 + (b >> 1)
                order = entries.get(buf[o:end])
                if order is not None:
                    orders_append(order)
                    o = end
                    continue
            start = o
            n_cells, o = decode_varint(buf, o)
            cells = []
            for _ in range(n_cells):
                col_index, o = decode_varint(buf, o)
                cells.append(col_index)
            order = tuple(cells)
            if o - start == 1 + n_cells:
                entries[buf[start:o]] = order
            orders_append(order)

        n_cols, o = decode_varint(buf, o)
        vectors = ColumnVectors(self, payload, keys, orders, n_cols)
        if layout is None:
            names = []
            starts = []
            for col_index in range(n_cols):
                names.append(decode_text(buf, o)[0])
                starts.append(o)
                o = vectors._parse_chunk(col_index, o)
            layout = ChunkLayout(tuple(names), tuple(starts))
        vectors.names, vectors._starts = layout
        return vectors


#: ``encode_varint(n)`` for the lengths most raw values have.
_LENGTH_HEADS = [encode_varint(n) for n in range(8192)]


def _length_prefixed(values: Sequence[bytes]):
    """``map(encode_bytes, values)`` as pieces to join: each value's
    varint length, then the value — no bytes object built per value."""
    try:
        heads = list(map(_LENGTH_HEADS.__getitem__, map(len, values)))
    except IndexError:  # a value of 8 KiB or more
        return map(encode_bytes, values)
    return chain.from_iterable(zip(heads, values))


def _zone_of(values) -> tuple:
    """The ``(lo, hi, distinct)`` zone entry of a block column's
    distinct non-NULL ``values`` (NaN-free)."""
    distinct = frozenset(values) if len(values) <= ZONE_DISTINCT_MAX else None
    return (min(values), max(values), distinct)


class ColumnVectors:
    """One decoded columnar block: the form the block cache holds.

    The directory (``keys``, ``orders``) is parsed up front — locating a
    key needs nothing else.  A column's chunk is parsed into its raw
    value vector the first time something reads that column, and raw
    value bytes are kept verbatim (typed decode is lazy too, and
    memoized per column when a scan decodes a whole vector; per-cell
    timestamps stay inside the retained payload until
    :meth:`materialize` slices them out), so one cached block serves
    vector predicate evaluation, point fetches and byte-exact row
    rematerialization.
    """

    __slots__ = (
        "codec", "keys", "names", "orders", "_payload", "_starts",
        "_chunks", "_typed", "nbytes",
    )

    def __init__(self, codec, payload, keys, orders, n_cols) -> None:
        self.codec = codec
        self.keys = keys
        self.orders = orders
        self._payload = payload
        self.names: Tuple[str, ...] = ()
        self._starts: Tuple[int, ...] = ()
        # Per column, once parsed: (raw value vector, the rows holding a
        # cell for it, the payload offset of their timestamps, the
        # encoded column name as it sits at the chunk's head).
        self._chunks: List[Optional[tuple]] = [None] * n_cols
        self._typed: Dict[str, List] = {}
        self.nbytes = len(payload) + 16 * len(keys)  # payload + directory

    def __len__(self) -> int:
        return len(self.keys)

    def _chunk(self, col_index: int) -> tuple:
        chunk = self._chunks[col_index]
        if chunk is None:
            self._parse_chunk(col_index, self._starts[col_index])
            chunk = self._chunks[col_index]
        return chunk

    def _parse_chunk(self, col_index: int, o: int) -> int:
        """Parse the chunk of column ``col_index``, which starts at
        payload offset ``o``; returns the offset just past it."""
        buf = self._payload
        n_rows = len(self.keys)
        rows_here = [
            i for i, order in enumerate(self.orders) if col_index in order
        ]
        name_at = o
        length, o = decode_varint(buf, o)
        o += length
        encoded_name = buf[name_at:o]
        flag = buf[o]
        o += 1
        ts_offset = o
        o += 8 * len(rows_here)  # timestamps stay in place, read lazily
        raw_vec: List[Optional[bytes]] = [None] * n_rows
        if flag:
            distinct, o = decode_bytes_vector(buf, o)
            for i in rows_here:
                b = buf[o]
                if b < 0x80:
                    raw_vec[i] = distinct[b >> 1]
                    o += 1
                else:
                    dict_idx, o = decode_varint(buf, o)
                    raw_vec[i] = distinct[dict_idx]
        else:
            for i in rows_here:
                b = buf[o]
                o += 1
                if b < 0x80:
                    length = b >> 1
                else:
                    u = b & 0x7F
                    shift = 7
                    while True:
                        b = buf[o]
                        o += 1
                        u |= (b & 0x7F) << shift
                        if b < 0x80:
                            break
                        shift += 7
                    length = u >> 1
                end = o + length
                raw_vec[i] = buf[o:end]
                o = end
        self._chunks[col_index] = (raw_vec, rows_here, ts_offset, encoded_name)
        return o

    def chunk_cells(self, col_index: int) -> tuple:
        """Column ``col_index``'s chunk as stored — ``(rows, raw_vec,
        stamps, encoded_name)``: the rows holding a cell, the raw value
        vector (None at the other rows), their 8-byte timestamps as one
        byte string, and the column's encoded name — what compaction
        hands the emitter instead of rematerialized rows."""
        raw_vec, rows_here, ts_offset, encoded_name = self._chunk(col_index)
        stamps = self._payload[ts_offset:ts_offset + 8 * len(rows_here)]
        return rows_here, raw_vec, stamps, encoded_name

    def _raw(self, name: str) -> Optional[List[Optional[bytes]]]:
        """The raw value vector of column ``name`` (None for a column
        with no chunk in this block), parsing its chunk on first touch."""
        names = self.names
        return self._chunk(names.index(name))[0] if name in names else None

    def typed(self, name: str) -> List:
        """Column ``name`` decoded into a value vector (None where the
        row has no such cell), memoized on the cached block — what a
        scan reads (:meth:`ColumnarCodec.decode_column`)."""
        vector = self._typed.get(name)
        if vector is None:
            raw_vec = self._raw(name)
            vector = self._typed[name] = (
                [None] * len(self.keys) if raw_vec is None
                else self.codec.decode_column(name, raw_vec)
            )
        return vector

    def values_at(self, name: str, positions: Sequence[int]) -> List:
        """Column ``name`` at ``positions`` only — what a fetch reads:
        just those cells are decoded, unless a scan already left the
        whole typed vector on the block."""
        vector = self._typed.get(name)
        if vector is not None:
            return [vector[i] for i in positions]
        raw_vec = self._raw(name)
        if raw_vec is None:
            return [None] * len(positions)
        return self.codec.decode_column(name, [raw_vec[i] for i in positions])

    def materialize(self, i: int) -> bytes:
        """Row ``i`` re-encoded byte-identically to its row-major form."""
        order = self.orders[i]
        parts = [encode_varint(len(order))]
        chunks = self._chunks
        payload = self._payload
        for col_index in order:
            chunk = chunks[col_index]
            if chunk is None:
                chunk = self._chunk(col_index)
            raw_vec, rows_here, ts_offset, encoded_name = chunk
            # The cell's timestamp is the rank-th of its chunk.
            ts_at = ts_offset + 8 * bisect_left(rows_here, i)
            parts.append(encoded_name)
            parts.append(payload[ts_at:ts_at + 8])
            parts.append(raw_vec[i])
        return b"".join(parts)

    def row_size(self, i: int) -> int:
        """The length of row ``i``'s row-major form (:meth:`materialize`)
        without building it: what the row cache charges the row."""
        size = len(encode_varint(len(self.orders[i])))
        for col_index in self.orders[i]:
            raw_vec, _, _, encoded_name = self._chunk(col_index)
            size += len(encoded_name) + 8 + len(raw_vec[i])
        return size

    def all_rows(self) -> Tuple[List, List[bytes]]:
        """The block in classic ``(keys, rows)`` form — every row
        rematerialized, for the callers whose business is encoded bytes
        (the round-trip checkers).  Nothing is kept."""
        return self.keys, [self.materialize(i) for i in range(len(self.keys))]


class RowColumns:
    """Encoded (memtable) rows read a column at a time: split once, on
    the first column touched, as a flush splits them
    (:meth:`ColumnarCodec.split_rows`: no cell name is decoded), and each
    column decoded on first touch and kept, as a block's is."""

    __slots__ = ("codec", "_rows", "_raw_cols", "_orders", "_typed")

    def __init__(self, codec: ColumnarCodec, rows: Sequence[bytes]) -> None:
        self.codec = codec
        self._rows = rows
        self._raw_cols: Optional[List[List[bytes]]] = None
        self._orders: List[Tuple[int, ...]] = []
        self._typed: Dict[str, List] = {}

    def typed(self, name: str) -> List:
        """Column ``name`` of every row (None where a row has no cell)."""
        vector = self._typed.get(name)
        if vector is None:
            codec = self.codec
            if self._raw_cols is None:
                _, self._raw_cols, self._orders = codec.split_rows(self._rows)
            index = codec.column_names.index(name)
            raws = self._raw_cols[index]
            if len(raws) < len(self._rows):  # some row has no such cell
                cells = iter(raws)
                raws = [next(cells) if index in order else None for order in self._orders]
            vector = self._typed[name] = codec.decode_column(name, raws)
        return vector
