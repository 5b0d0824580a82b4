"""Runtime invariant checkers for SSTables and column families.

SSTable invariants (DESIGN.md "NoSQL engine", paper §5 storage model):

* **Sorted blocks** — block first-keys ascend strictly; entries inside a
  block ascend strictly and start at the indexed first key; blocks do
  not overlap (the binary-searched point read depends on all three).
* **Bloom no-false-negative** — every stored key answers
  ``might_contain() == True``; a false negative silently loses rows.
* **Columnar round-trip** — each block carries the columnar ``'C'`` tag,
  decompresses, decodes into column vectors, rematerializes every row
  byte-identically, re-encodes to the exact stored payload, and its
  in-memory zone maps and chunk layout match a fresh recomputation from
  the stored values (rule ``sstable.columnar-roundtrip``; see
  docs/columnar_blocks.md).  A block that fails to decompress or decode,
  or carries another tag, is an ``sstable.corrupt-block``.
* **Row accounting** — entry count matches ``len(table)``; tombstoned
  keys never coexist with a live row in the same table.

Column-family invariants add the cross-structure checks:

* **Memtable ↔ commit-log agreement** — in a durable keyspace, the
  newest logged mutation for every unflushed key equals the memtable's
  live row (or an empty payload for a tombstone); this is what makes
  crash replay byte-faithful.
* **Secondary-index ↔ data agreement** — index entries and live rows
  describe each other exactly, in both directions (a NULL or NaN value
  has no entry: :func:`~repro.storage.values.indexable`).
* **Row-cache agreement** — every cached row (or cached negative read)
  matches the reference decode (:func:`decode_row`) of what an uncached
  storage walk returns for that key; a stale entry means a mutation
  skipped its strict invalidation (docs/read_path.md).
* **Live-count agreement** — the write-path-maintained row counter
  equals the deduplicated live-row count across memtables and SSTables.

:func:`encode_row` / :func:`decode_row` are the reference row codec the
checkers and tests hold the engine's column reads and writes to.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.btree_check import btree_check
from repro.analysis.violations import CheckReport
from repro.nosqldb.cache import NEGATIVE
from repro.nosqldb.columnfamily import ColumnFamily
from repro.nosqldb.errors import InvalidRequest
from repro.nosqldb.sstable import SSTable
from repro.storage.btree import encode_key
from repro.storage.encoding import decode_text, encode_text
from repro.storage.values import indexable
from repro.storage.varint import decode_varint, encode_varint

_CHECKER = "sstable"


# ----------------------------------------------------------------------
# the reference row codec
# ----------------------------------------------------------------------
def encode_row(family: ColumnFamily, row: Dict[str, object], timestamp: int = 0) -> bytes:
    """One row in Cassandra 2.x's format: a cell count, then a (name,
    8-byte timestamp, value) triple per non-None cell, in column order."""
    parts: List[bytes] = []
    ts_bytes = timestamp.to_bytes(8, "little", signed=False)
    for column in family.columns:
        value = row.get(column.name)
        if value is not None:
            parts += (encode_text(column.name), ts_bytes, column.cql_type.encode(value))
    return encode_varint(len(parts) // 3) + b"".join(parts)


def decode_row(family: ColumnFamily, encoded: bytes) -> Dict[str, object]:
    """One stored row as a dict of every column (None: no cell).
    Raises InvalidRequest when a cell names a column the table lacks."""
    row: Dict[str, object] = dict.fromkeys(family.column_names)
    count, offset = decode_varint(encoded, 0)
    for _ in range(count):
        name, offset = decode_text(encoded, offset)
        offset += 8  # write timestamp
        if name not in row:
            raise InvalidRequest(f"stored row names unknown column {name!r}")
        row[name], offset = family.column(name).cql_type.decode(encoded, offset)
    return row


def sstable_check(table: SSTable, name: str = "sstable") -> CheckReport:
    """Check every structural invariant of one SSTable; never raises.

    Corruption that breaks decompression or decoding is reported as an
    ``sstable.corrupt-block`` violation instead of propagating.
    """
    report = CheckReport(f"sstable_check[{name}]")
    block_keys = table._block_keys

    previous_block_key = None
    for index, block_key in enumerate(block_keys):
        if previous_block_key is not None:
            try:
                report.check(
                    previous_block_key < block_key, _CHECKER,
                    "sstable.block-order", f"{name}/block[{index}]",
                    f"block first-keys out of order: {previous_block_key!r} "
                    f"!< {block_key!r}",
                )
            except TypeError:
                report.add(
                    _CHECKER, "sstable.block-order", f"{name}/block[{index}]",
                    f"uncomparable block first-key {block_key!r}",
                )
        previous_block_key = block_key

    n_rows = 0
    previous_key = None
    for index in range(len(block_keys)):
        location = f"{name}/block[{index}]"
        try:
            entries = _check_columnar_block(report, table, index, location)
        except Exception as exc:  # corrupt bytes surface as a violation
            report.add(
                _CHECKER, "sstable.corrupt-block", location,
                f"block failed to decompress/decode: {type(exc).__name__}: {exc}",
            )
            continue
        report.check(
            bool(entries), _CHECKER, "sstable.empty-block", location,
            "sealed block holds no entries",
        )
        for position, key in enumerate(entries):
            n_rows += 1
            if position == 0:
                report.check(
                    key == block_keys[index], _CHECKER, "sstable.block-index",
                    location,
                    f"sparse index says first key {block_keys[index]!r}, block "
                    f"starts at {key!r}",
                )
            if previous_key is not None:
                try:
                    report.check(
                        previous_key < key, _CHECKER, "sstable.key-order",
                        location,
                        f"row keys out of order: {previous_key!r} !< {key!r}",
                    )
                except TypeError:
                    report.add(
                        _CHECKER, "sstable.key-order", location,
                        f"uncomparable row key {key!r}",
                    )
            previous_key = key
            report.check(
                table._bloom.might_contain(key), _CHECKER,
                "sstable.bloom-false-negative", location,
                f"bloom filter misses stored key {key!r} (reads would skip "
                "this table)",
            )
            report.check(
                key not in table._tombstones, _CHECKER,
                "sstable.tombstone-overlap", location,
                f"key {key!r} is both live and tombstoned in one table",
            )

    report.check(
        n_rows == len(table), _CHECKER, "sstable.row-count", name,
        f"table reports {len(table)} rows, blocks hold {n_rows}",
    )
    return report


def _check_columnar_block(
    report: CheckReport, table: SSTable, index: int, location: str
) -> List[object]:
    """Verify one block and return its keys.

    The round-trip is exact both ways: decode -> rematerialize rows ->
    re-encode must reproduce the stored payload byte-for-byte (the
    encoder is deterministic), and the table's in-memory zone maps and
    chunk layout must equal a fresh recomputation from the stored
    values.  The payload is decoded *without* the table's layout, so a
    wrong one cannot vouch for itself.  Raises when the block carries
    another format tag or its payload cannot be decoded at all (reported
    as a corrupt block by the caller).
    """
    codec = table._codec
    payload = table._block_payload(index)
    vectors = codec.decode_block(payload)
    keys, rows = vectors.all_rows()
    reencoded, zones, _, _, layout = codec.encode_block(
        [encode_key(key) for key in keys], rows, codec.zone_memo()
    )
    report.check(
        reencoded == payload, _CHECKER, "sstable.columnar-roundtrip", location,
        "columnar block does not re-encode to its stored payload",
    )
    stored_zones = table._zone_maps[index]
    report.check(
        stored_zones == zones, _CHECKER, "sstable.columnar-roundtrip", location,
        "in-memory zone maps differ from a recomputation over the stored "
        "values (block skipping could drop or retain the wrong blocks)",
    )
    report.check(
        table._layouts[index] == layout, _CHECKER, "sstable.columnar-roundtrip",
        location,
        "in-memory chunk layout differs from a recomputation over the "
        "stored values (reads would parse column chunks at the wrong offsets)",
    )
    return keys


def check_sealed_block(
    codec, payload: bytes, layout, encoded_keys, rows, location: str
) -> CheckReport:
    """The ``REPRO_CHECK=1`` build hook: a columnar payload about to be
    stored must decode — through the chunk ``layout`` stored beside it,
    as reads will — and rematerialize to exactly the entries it was
    encoded from (rule ``sstable.columnar-roundtrip``)."""
    report = CheckReport(f"check_sealed_block[{location}]")
    keys, decoded_rows = codec.decode_block(payload, layout).all_rows()
    report.check(
        [encode_key(key) for key in keys] == list(encoded_keys)
        and decoded_rows == list(rows),
        _CHECKER, "sstable.columnar-roundtrip", location,
        "sealed columnar block does not rematerialize to its input rows",
    )
    return report


# ----------------------------------------------------------------------
# column-family level
# ----------------------------------------------------------------------
def columnfamily_check(family: ColumnFamily) -> CheckReport:
    """Check one column family: its SSTables plus cross-structure rules.

    Deliberately avoids forcing flush/materialisation: only already-built
    SSTables are checked, so running the checker never changes what a
    subsequent read or benchmark observes.
    """
    report = CheckReport(f"columnfamily_check[{family.name}]")
    for index, sstable in enumerate(family._sstables):
        report.merge(sstable_check(sstable, name=f"{family.name}/sstable[{index}]"))
    _check_commitlog_agreement(report, family)
    _check_index_agreement(report, family)
    _check_row_cache_agreement(report, family)
    _check_live_count(report, family)
    for column_name, secondary in family._indexes.items():
        report.merge(
            btree_check(secondary._tree, name=f"{family.name}/index[{column_name}]")
        )
    return report


def _unflushed_view(family: ColumnFamily) -> Dict[object, Optional[bytes]]:
    """Newest unflushed mutation per key: encoded row, or None = tombstone."""
    view: Dict[object, Optional[bytes]] = {}
    for memtable in [family._memtable, *reversed(family._pending)]:
        # newest first; first hit wins
        for key, encoded in memtable:
            view.setdefault(key, encoded)
        for key in memtable.tombstones:
            view.setdefault(key, None)
    return view


def _check_commitlog_agreement(report: CheckReport, family: ColumnFamily) -> None:
    log = family._commit_log
    if log is None:
        return
    location = f"{family.name}/commitlog"
    try:
        latest: Dict[object, bytes] = {}
        for table_name, key, encoded_row in log.records():
            if table_name == family.name:
                latest[key] = encoded_row
    except Exception as exc:
        report.add(
            _CHECKER, "sstable.commitlog-corrupt", location,
            f"commit log failed to decode: {type(exc).__name__}: {exc}",
        )
        return
    for key, encoded in _unflushed_view(family).items():
        logged = latest.get(key)
        if encoded is None:  # tombstone: logged as an empty payload
            report.check(
                logged == b"", _CHECKER, "sstable.commitlog-agreement",
                location,
                f"memtable tombstone for key {key!r} is not the newest logged "
                "mutation",
            )
        else:
            report.check(
                logged == encoded, _CHECKER, "sstable.commitlog-agreement",
                location,
                f"memtable row for key {key!r} differs from the newest logged "
                "mutation (crash replay would diverge)",
            )


def _live_rows(family: ColumnFamily) -> Iterator[Tuple[object, bytes]]:
    """Every live ``(key, encoded_row)`` without forcing materialisation
    (layered walk, newest first)."""
    seen = set()
    deleted = set()
    for memtable in [family._memtable, *reversed(family._pending)]:
        for key, encoded in memtable:
            if key not in seen and key not in deleted:
                seen.add(key)
                yield key, encoded
        deleted |= set(memtable.tombstones)
    for sstable in reversed(family._sstables):
        for key, encoded in sstable.items():
            if key not in seen and key not in deleted:
                seen.add(key)
                yield key, encoded
        deleted |= set(sstable.tombstones)


def _check_index_agreement(report: CheckReport, family: ColumnFamily) -> None:
    if not family._indexes:
        return
    expected: Dict[str, set] = {column: set() for column in family._indexes}
    for key, encoded in _live_rows(family):
        try:
            row = decode_row(family, encoded)
        except Exception as exc:
            report.add(
                _CHECKER, "sstable.corrupt-row", f"{family.name}[{key!r}]",
                f"stored row failed to decode: {type(exc).__name__}: {exc}",
            )
            continue
        for column in expected:
            value = row.get(column)
            if indexable(value):
                expected[column].add((value, key))
    for column, index in family._indexes.items():
        actual = set(index._tree.keys())
        location = f"{family.name}/index[{column}]"
        missing = expected[column] - actual
        extra = actual - expected[column]
        report.check(
            not missing, _CHECKER, "sstable.index-agreement", location,
            f"{len(missing)} live row(s) missing from the index, e.g. "
            f"{_example(missing)}",
        )
        report.check(
            not extra, _CHECKER, "sstable.index-agreement", location,
            f"{len(extra)} index entrie(s) with no matching live row, e.g. "
            f"{_example(extra)}",
        )


def _check_row_cache_agreement(report: CheckReport, family: ColumnFamily) -> None:
    """Every cached row must equal the reference decode of an uncached
    storage walk for its key, value for value (:func:`_exact`).

    This is the safety net behind the row cache's strict-invalidation
    rules: any mutation path that forgets ``invalidate``/``clear`` shows
    up here as a stale entry.
    """
    location = f"{family.name}/row-cache"
    for key, cached in family._row_cache.items():
        hit = family._locate((key,))[key]  # past the row cache
        actual = hit[0].materialize(hit[1]) if type(hit) is tuple else hit
        if cached is NEGATIVE:
            report.check(
                actual is None, _CHECKER, "sstable.row-cache-stale", location,
                f"cache says key {key!r} is absent but storage holds a live row",
            )
        else:
            stored = None if actual is None else list(decode_row(family, actual).values())
            report.check(
                stored is not None and _exact(cached) == _exact(stored),
                _CHECKER, "sstable.row-cache-stale", location,
                f"cached row for key {key!r} differs from the stored row "
                "(a mutation skipped invalidation)",
            )


def _exact(row) -> List[Tuple[type, str]]:
    """A row's values by type and repr: NaN equals NaN, -0.0 is not 0.0."""
    return [(type(value), repr(value)) for value in row]


def _check_live_count(report: CheckReport, family: ColumnFamily) -> None:
    actual = sum(1 for _ in _live_rows(family))
    report.check(
        family._n_live == actual, _CHECKER, "sstable.live-count",
        f"{family.name}/live-count",
        f"write path counted {family._n_live} live row(s), storage holds {actual}",
    )


def _example(entries: set) -> str:
    return repr(next(iter(entries))) if entries else "-"
