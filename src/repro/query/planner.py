"""Rule-based access-path selection and the per-session plan cache.

The planner sees a dialect-neutral description of the target table
(:class:`TableMeta`) and the WHERE conditions as ``(column, op)`` pairs
in source order, and picks the cheapest access path by rule:

1. an equality on a single-column primary key  -> ``point``
2. an ``IN`` on a single-column primary key    -> ``multiget``
3. an equality on the first primary-key column
   of a composite key (when the storage layer
   supports prefix scans)                      -> ``pk-prefix``
4. an equality on an indexed column            -> ``index``
5. otherwise                                   -> ``scan``

Primary-key rules are tried across all conditions before index rules —
a pk hit later in the WHERE clause beats an indexed column earlier —
matching what both executors historically did.  Within each tier the
first matching condition wins, so plans are deterministic for a given
statement.

:class:`PlanCache` memoises compiled plans per session, keyed on
``(database-or-keyspace, statement text)``.  Cached entries carry
zero-argument *guards* (see :class:`repro.query.plan.Plan`) that
revalidate table identity and index signatures on every hit, so DDL
(DROP/CREATE TABLE, CREATE INDEX) invalidates stale plans instead of
silently replaying them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from repro.telemetry import get_registry

# Live plan-cache traffic, summed across every session's cache
# (per-session breakdowns stay available via PlanCache.stats()).
_REGISTRY = get_registry()
_M_PLAN_HITS = _REGISTRY.counter("query_plan_cache_hits_total", "plan-cache hits")
_M_PLAN_MISSES = _REGISTRY.counter("query_plan_cache_misses_total", "plan-cache misses")
_M_PLAN_INVALIDATIONS = _REGISTRY.counter(
    "query_plan_cache_invalidations_total", "cached plans evicted by failed guards"
)

#: Access-path names :func:`choose_access` can return.
ACCESS_POINT = "point"
ACCESS_MULTIGET = "multiget"
ACCESS_PK_PREFIX = "pk-prefix"
ACCESS_INDEX = "index"
ACCESS_SCAN = "scan"


class TableMeta(NamedTuple):
    """What the planner needs to know about a table or column family."""

    name: str
    primary_key: Tuple[str, ...]
    indexed: frozenset
    supports_pk_prefix: bool


def choose_access(meta: TableMeta, conditions: Sequence[Tuple[str, str]]) -> Tuple[str, Optional[int]]:
    """Pick an access path; returns ``(access, condition_index)``.

    ``conditions`` are ``(column, op)`` pairs in source order; the
    returned index says which condition the access path consumes (the
    engine drops it from the residual filter).  ``scan`` consumes none.
    """
    single_pk = meta.primary_key[0] if len(meta.primary_key) == 1 else None
    prefix_pk = meta.primary_key[0] if (
        meta.supports_pk_prefix and len(meta.primary_key) > 1
    ) else None
    for i, (column, op) in enumerate(conditions):
        if single_pk is not None and column == single_pk:
            if op == "=":
                return ACCESS_POINT, i
            if op == "IN":
                return ACCESS_MULTIGET, i
        if prefix_pk is not None and column == prefix_pk and op == "=":
            return ACCESS_PK_PREFIX, i
    for i, (column, op) in enumerate(conditions):
        if op == "=" and column in meta.indexed:
            return ACCESS_INDEX, i
    return ACCESS_SCAN, None


def choose_join_access(meta: TableMeta, join_column: str) -> str:
    """Access path for probing ``meta`` on ``join_column`` equality:
    ``point`` (unique pk probe), ``index``, or ``scan`` (build a hash
    table over the full relation)."""
    if len(meta.primary_key) == 1 and join_column == meta.primary_key[0]:
        return ACCESS_POINT
    if join_column in meta.indexed:
        return ACCESS_INDEX
    return ACCESS_SCAN


def table_guard(resolve_table: Callable[[], object], table) -> Callable[[], bool]:
    """The plan-cache guard every cached entry bound to ``table`` carries.

    ``resolve_table`` looks the table up by name the way the statement
    would today.  The guard holds while that lookup still yields the same
    object (DROP/recreate swaps it), with the same index signature
    (CREATE INDEX changes the access paths).  A lookup that raises —
    the table or its namespace is gone — counts as stale in
    :meth:`PlanCache.get`.
    """
    indexed = frozenset(table.indexed_columns)

    def guard() -> bool:
        return (
            resolve_table() is table
            and frozenset(table.indexed_columns) == indexed
        )

    return guard


class PlanCacheStats(NamedTuple):
    """Cumulative plan-cache counters."""

    hits: int
    misses: int
    invalidations: int
    entries: int


class PlanCache:
    """LRU cache of compiled plans keyed on statement template.

    Entries are whatever the engine binding compiled (normally a
    :class:`repro.query.plan.Plan`); anything exposing ``guards`` gets
    revalidated on each hit.  A guard failure evicts the entry and
    counts as an invalidation *and* a miss, so warm-pass hit counts stay
    honest across DDL.
    """

    __slots__ = ("capacity", "_entries", "hits", "misses", "invalidations")

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(self, key):
        """The cached plan for ``key``, or None on miss/invalidation."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            _M_PLAN_MISSES.inc()
            return None
        guards = getattr(entry, "guards", ())
        try:
            stale = not all(guard() for guard in guards)
        except Exception:
            stale = True
        if stale:
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            _M_PLAN_INVALIDATIONS.inc()
            _M_PLAN_MISSES.inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        _M_PLAN_HITS.inc()
        return entry

    def peek(self, key):
        """The cached entry for ``key`` with *no* side effects — no LRU
        bump, no guard revalidation, no hit/miss accounting.  The query
        log uses this to read a plan's counters after execution without
        perturbing the cache metrics the record is about to report."""
        return self._entries.get(key)

    def put(self, key, plan) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = plan
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def entries(self):
        """Snapshot of cached ``(key, plan)`` pairs, LRU-first order."""
        return list(self._entries.items())

    def stats(self) -> PlanCacheStats:
        return PlanCacheStats(
            hits=self.hits,
            misses=self.misses,
            invalidations=self.invalidations,
            entries=len(self._entries),
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"PlanCache(entries={s.entries}, hits={s.hits}, "
            f"misses={s.misses}, invalidations={s.invalidations})"
        )
