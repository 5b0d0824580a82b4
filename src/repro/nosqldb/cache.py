"""Read-path caches for the columnar NoSQL engine.

Cassandra keeps point reads affordable with a layered cache hierarchy:
the *block* (chunk) cache holds decompressed SSTable chunks so a read
pays zlib/LZ4 at most once per block, and the optional *row* cache holds
whole rows so a hot key skips the storage walk entirely.  This module
reproduces both as byte-budgeted LRU caches with hit/miss/eviction
counters, which :meth:`~repro.nosqldb.columnfamily.ColumnFamily.stats`
surfaces (docs/read_path.md).

Budgets come from the environment, mirroring ``REPRO_SCALE`` /
``REPRO_CHECK``:

* ``REPRO_BLOCK_CACHE_BYTES`` — decoded-block budget per column family
  (default :data:`DEFAULT_BLOCK_CACHE_BYTES`; ``0`` disables).
* ``REPRO_ROW_CACHE_BYTES`` — decoded-row budget per column family,
  each row charged its stored size (default
  :data:`DEFAULT_ROW_CACHE_BYTES`; ``0`` disables).

Both caches are plain LRU over an ``OrderedDict``; an entry is charged
its payload plus a fixed per-entry overhead.  The payload is a block's
stored bytes and directory, a row's stored size, so a budget bounds those
bytes, not the memory the decoded values take (docs/read_path.md).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Tuple

from repro.telemetry import get_registry

# Live cache metrics (labelled by cache kind) so the warm-query pass and
# `repro stats` read traffic as it happens instead of re-snapshotting
# per-table stats tuples.  Children are bound once per cache instance.
_M_CACHE_HITS = get_registry().counter(
    "nosqldb_cache_hits_total", "cache hits", labels=("cache",)
)
_M_CACHE_MISSES = get_registry().counter(
    "nosqldb_cache_misses_total", "cache misses", labels=("cache",)
)
_M_CACHE_EVICTIONS = get_registry().counter(
    "nosqldb_cache_evictions_total", "LRU evictions", labels=("cache",)
)
_M_CACHE_INVALIDATIONS = get_registry().counter(
    "nosqldb_cache_invalidations_total", "explicit invalidations", labels=("cache",)
)

#: Default decoded-block budget per column family (bytes).
DEFAULT_BLOCK_CACHE_BYTES = 32 * 1024 * 1024

#: Default decoded-row budget per column family (bytes of stored rows).
DEFAULT_ROW_CACHE_BYTES = 4 * 1024 * 1024

#: Fixed bookkeeping charge per cached entry (keys, list headers, links).
ENTRY_OVERHEAD = 64

#: Sentinel distinguishing a cached negative read ("key is absent") from
#: an uncached key; ``RowCache.get`` returns it so callers can tell the
#: two apart without a second lookup.
NEGATIVE = object()


def _env_budget(name: str, default: int) -> int:
    """Byte budget from the environment; malformed values fall back."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return max(0, int(raw))
    except ValueError:
        return default


def block_cache_budget() -> int:
    """The configured per-table block-cache budget (0 = disabled)."""
    return _env_budget("REPRO_BLOCK_CACHE_BYTES", DEFAULT_BLOCK_CACHE_BYTES)


def row_cache_budget() -> int:
    """The configured per-table row-cache budget (0 = disabled)."""
    return _env_budget("REPRO_ROW_CACHE_BYTES", DEFAULT_ROW_CACHE_BYTES)


class CacheStats(NamedTuple):
    """Counters for one cache: sizing plus lifetime hit/miss traffic."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    entries: int
    used_bytes: int
    capacity_bytes: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the cache (0.0 when idle)."""
        requests = self.hits + self.misses
        return self.hits / requests if requests else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe mapping including the derived ``requests``/``hit_rate``."""
        out: Dict[str, object] = dict(self._asdict())
        out["requests"] = self.requests
        out["hit_rate"] = self.hit_rate
        return out


class _LRUBytes:
    """A byte-budgeted LRU map: shared machinery of both caches."""

    KIND = "lru"

    __slots__ = (
        "_entries", "_capacity", "_used", "_hits", "_misses", "_evictions",
        "_invalidations", "_m_hits", "_m_misses", "_m_evictions",
        "_m_invalidations",
    )

    def __init__(self, capacity_bytes: int) -> None:
        self._entries: "OrderedDict[object, Tuple[object, int]]" = OrderedDict()
        self._capacity = max(0, capacity_bytes)
        self._used = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        kind = self.KIND
        self._m_hits = _M_CACHE_HITS.labels(kind)
        self._m_misses = _M_CACHE_MISSES.labels(kind)
        self._m_evictions = _M_CACHE_EVICTIONS.labels(kind)
        self._m_invalidations = _M_CACHE_INVALIDATIONS.labels(kind)

    @property
    def enabled(self) -> bool:
        return self._capacity > 0

    @property
    def hits(self) -> int:
        """Cumulative hit count — a plain read (plan leaves probe it
        around every call; :meth:`stats` builds a whole snapshot)."""
        return self._hits

    def _get(self, key, default=None):
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            self._m_misses.inc()
            return default
        self._entries.move_to_end(key)
        self._hits += 1
        self._m_hits.inc()
        return entry[0]

    def _put(self, key, value, nbytes: int) -> None:
        if not self._capacity:
            return
        charged = nbytes + ENTRY_OVERHEAD
        if charged > self._capacity:
            return  # larger than the whole budget: never cacheable
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._used -= previous[1]
        self._entries[key] = (value, charged)
        self._used += charged
        while self._used > self._capacity:
            _, (_, evicted_bytes) = self._entries.popitem(last=False)
            self._used -= evicted_bytes
            self._evictions += 1
            self._m_evictions.inc()

    def _drop(self, key) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._used -= entry[1]
            self._invalidations += 1
            self._m_invalidations.inc()

    def clear(self) -> None:
        """Invalidate everything (counted once per dropped entry)."""
        dropped = len(self._entries)
        self._invalidations += dropped
        if dropped:
            self._m_invalidations.inc(dropped)
        self._entries.clear()
        self._used = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            invalidations=self._invalidations,
            entries=len(self._entries),
            used_bytes=self._used,
            capacity_bytes=self._capacity,
        )


class BlockCache(_LRUBytes):
    """Decoded SSTable blocks, keyed by ``(table_uid, block_index)``.

    The cached value is the block decoded *once*, as
    :class:`~repro.nosqldb.columnar.ColumnVectors`, so one decode serves
    vectorized predicate evaluation, lazy typed-column decode *and*
    byte-exact row rematerialization.  SSTables are immutable, so
    entries never go stale — invalidation exists only to release the
    budget of superseded tables (compaction, truncate).
    """

    KIND = "block"

    def get(self, table_uid: int, index: int):
        return self._get((table_uid, index))

    def put(self, table_uid: int, index: int, block) -> None:
        """Cache a decoded block, charged its ``nbytes``."""
        self._put((table_uid, index), block, block.nbytes)

    def drop_table(self, table_uid: int) -> None:
        """Release every block of one (superseded) SSTable."""
        for key in [k for k in self._entries if k[0] == table_uid]:
            self._drop(key)

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"BlockCache(entries={s.entries}, used={s.used_bytes}/"
            f"{s.capacity_bytes}B, hit_rate={s.hit_rate:.2f})"
        )


class RowCache(_LRUBytes):
    """Decoded rows keyed by primary key, with negative-read caching.

    A row is held decoded once, a list of its values in schema column
    order (None: no cell), charged its stored size.  Absent keys are
    cached as :data:`NEGATIVE` so repeated misses also skip the storage
    walk.  Every mutation of a key must call :meth:`invalidate` (rules:
    docs/read_path.md, checked by ``sstable_check.columnfamily_check``).
    """

    KIND = "row"

    def get(self, key):
        """The cached row, :data:`NEGATIVE`, or None (uncached)."""
        return self._get(key)

    def put(self, key, row: Optional[list], nbytes: int = 0) -> None:
        """Cache ``row`` charged ``nbytes`` (its stored size); None: absent."""
        self._put(key, NEGATIVE if row is None else row, nbytes)

    def invalidate(self, key) -> None:
        self._drop(key)

    def items(self):
        """Snapshot of cached ``(key, row_or_NEGATIVE)`` pairs (for checkers)."""
        return [(key, value) for key, (value, _) in self._entries.items()]

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"RowCache(entries={s.entries}, used={s.used_bytes}/"
            f"{s.capacity_bytes}B, hit_rate={s.hit_rate:.2f})"
        )
