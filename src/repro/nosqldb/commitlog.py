"""The commit log: the durability half of Cassandra's write path.

Every mutation is appended here, fully serialised, before the write that
makes it returns — a bulk write appends a chunk's records in one go.
After a crash the memtables are gone but the log survives;
:meth:`CommitLog.replay` re-applies every mutation recorded since the
last checkpoint.  SSTables are never in the log's scope — once a
memtable flushes, :meth:`checkpoint` discards the covered segment.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.storage.btree import decode_key, encode_key
from repro.storage.encoding import decode_bytes, decode_text, encode_bytes, encode_text
from repro.telemetry import get_registry

_REGISTRY = get_registry()
_M_APPENDS = _REGISTRY.counter(
    "nosqldb_commitlog_appends_total", "mutations appended to the commit log"
)
_M_APPEND_BYTES = _REGISTRY.counter(
    "nosqldb_commitlog_bytes_total", "serialized bytes appended to the commit log"
)

#: Per-record header: segment id, position, checksum.
RECORD_HEADER_BYTES = 12


class CommitLog:
    """An append-only, replayable mutation log for one keyspace."""

    __slots__ = ("_buffer", "_n_records")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._n_records = 0

    def append(self, table_name: str, key, encoded_row: bytes) -> None:
        """Record one mutation."""
        self.append_many(table_name, (key,), (encoded_row,))

    def append_many(self, table_name: str, keys, encoded_rows) -> None:
        """Record one mutation per ``(key, encoded row)`` pair in one
        buffer write: each record is header, table name, key and row —
        the same bytes one :meth:`append` per pair writes.

        Raises TypeError for a key type the log cannot encode; nothing
        of the batch is recorded then.
        """
        payload = _records(table_name, keys, encoded_rows)
        count = len(encoded_rows)
        self._buffer += payload
        self._n_records += count
        _M_APPENDS.inc(count)
        _M_APPEND_BYTES.inc(len(payload))

    def discard(self, table_name: str) -> None:
        """Drop ``table_name``'s records: a TRUNCATE replays nothing."""
        kept = [record for record in self.records() if record[0] != table_name]
        self._buffer = bytearray(b"".join(_records(name, (key,), (row,)) for name, key, row in kept))
        self._n_records = len(kept)

    def records(self) -> Iterator[Tuple[str, object, bytes]]:
        """Decode every logged ``(table, key, encoded_row)`` mutation."""
        buffer = self._buffer
        offset = 0
        end = len(buffer)
        while offset < end:
            offset += RECORD_HEADER_BYTES
            table_name, offset = decode_text(buffer, offset)
            key, offset = decode_key(buffer, offset)
            encoded_row, offset = decode_bytes(buffer, offset)
            yield table_name, key, encoded_row

    def checkpoint(self) -> None:
        """Discard the log (all covered memtables flushed)."""
        del self._buffer[:]
        self._n_records = 0

    def __len__(self) -> int:
        return self._n_records

    @property
    def size_bytes(self) -> int:
        return len(self._buffer)


def _records(table_name: str, keys, encoded_rows) -> bytes:
    """One record per ``(key, encoded row)``: header, table name, key, row."""
    head = bytes(RECORD_HEADER_BYTES) + encode_text(table_name)
    return b"".join([
        head + encode_key(key) + encode_bytes(row) for key, row in zip(keys, encoded_rows)
    ])
