"""Volcano-style plan nodes shared by both engines.

A plan is a tree of operators.  Leaves are *access paths* bound to a
storage object (a relational :class:`~repro.sqldb.table.Table` or a
:class:`~repro.nosqldb.columnfamily.ColumnFamily` — the kernel only
relies on the common ``get``/``get_many``/``lookup_indexed``/``scan``
duck type); inner nodes transform row streams.  Engine front-ends
compile their dialect's AST into the callables each node carries —
key resolvers take the bind-parameter tuple, predicates take
``(row, params)`` — so the kernel never sees an AST and never imports
an engine (lint rule REPRO006 enforces that direction).

Every node keeps cumulative counters (``calls``, ``rows_in``,
``rows_out``, plus ``keys_batched`` and ``blocks_cached`` on batched
leaves) surfaced through :meth:`Plan.operator_stats` and
:func:`repro.dwarf.stats.describe`.  ``EXPLAIN`` in either dialect is
:meth:`Plan.explain`: one row per operator in execution order, with the
same vocabulary everywhere.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.telemetry import cpu_clock, get_tracer, wall_clock

_TRACER = get_tracer()


def _shard_count(table) -> int:
    """How many consistent-hash shards the storage object exposes."""
    return getattr(table, "shard_count", 1)


def _run_sharded(table, tasks):
    """Run per-shard tasks through the table's scatter hook.

    Sharded storage objects expose ``run_sharded(tasks)`` (backed by the
    ``REPRO_WORKERS`` pool); the kernel duck-types it — it cannot import
    the pool itself, the engines sit above it (REPRO006) — and falls
    back to serial execution for plain tables.  Results come back in
    task (= shard) order either way.
    """
    runner = getattr(table, "run_sharded", None)
    if runner is None:
        return [task() for task in tasks]
    return runner(tasks)


class PartialAggregate(NamedTuple):
    """A distributive aggregate split into per-shard fold + global merge.

    ``fold_shard(rows, params)`` runs inside each shard's scatter task
    and reduces that shard's rows to a small state object;
    ``merge(states, params)`` combines the per-shard states — in shard
    order — into the final aggregate output rows.  ``count_only`` marks
    the pure COUNT(*) shape, which lets a sharded ``FullScan`` child
    answer from ``count_shard`` without materialising any row at all.
    """

    fold_shard: Callable
    merge: Callable
    count_only: bool = False


def count_partial() -> PartialAggregate:
    """The COUNT(*) decomposition both dialects share: per-shard row
    counts, summed at the gather."""
    return PartialAggregate(
        fold_shard=lambda rows, params: len(rows),
        merge=lambda states, params: [{"count": sum(states)}],
        count_only=True,
    )


class OperatorStats(NamedTuple):
    """One operator's cumulative execution counters.

    ``seconds`` is cumulative wall time spent in the operator *including
    its children* (volcano execution is pull-based, so a parent's clock
    runs while its child produces rows).  It is only accumulated while
    tracing is enabled (``REPRO_TRACE=1``); otherwise it stays 0.0 and
    execution pays a single attribute check per operator call.
    """

    node: str
    table: Optional[str]
    detail: str
    calls: int
    rows_in: int
    rows_out: int
    keys_batched: int
    blocks_cached: int
    seconds: float = 0.0
    blocks_skipped: int = 0   # blocks zone maps skipped for a pushed predicate
    rows_pruned: int = 0      # rows the storage layer pruned before emitting
    cpu_seconds: float = 0.0  # CPU time companion to ``seconds``


class _Context:
    """Per-execution state threaded through the operator tree.

    ``timed`` forces per-operator timing for this execution regardless
    of the tracer gate — EXPLAIN ANALYZE sets it so actuals carry
    wall/CPU seconds even when ``REPRO_TRACE`` is off.
    """

    __slots__ = ("params", "timed")

    def __init__(self, params: Sequence, timed: bool = False) -> None:
        self.params = tuple(params)
        self.timed = timed


class PlanNode:
    """Base operator: counters, children, and the EXPLAIN contract."""

    kind = "PlanNode"
    __slots__ = ("calls", "rows_in", "rows_out", "seconds", "cpu_seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.rows_in = 0
        self.rows_out = 0
        self.seconds = 0.0
        self.cpu_seconds = 0.0

    # -- execution ---------------------------------------------------------
    def run(self, params: Sequence = (), timed: bool = False) -> List[Dict[str, object]]:
        """Execute the subtree rooted here with ``params`` bound."""
        return self.rows(_Context(params, timed))

    def rows(self, ctx: _Context) -> List[Dict[str, object]]:
        """Produce this operator's row stream, timing it when tracing is
        on (or the execution asked to be timed)."""
        if not (_TRACER.enabled or ctx.timed):
            return self._execute(ctx)
        t0 = wall_clock()
        c0 = cpu_clock()
        try:
            return self._execute(ctx)
        finally:
            self.cpu_seconds += cpu_clock() - c0
            self.seconds += wall_clock() - t0

    def _execute(self, ctx: _Context) -> List[Dict[str, object]]:
        raise NotImplementedError

    # -- introspection -----------------------------------------------------
    @property
    def children(self) -> Tuple["PlanNode", ...]:
        return ()

    @property
    def table_name(self) -> Optional[str]:
        return None

    @property
    def key_desc(self) -> Optional[str]:
        return None

    def detail(self) -> str:
        return ""

    def explain(self) -> List[Dict[str, object]]:
        """One row per operator, numbered in execution (leaf-first) order.

        Operators that scatter across shards additionally render one
        ``fanout shard=<i>`` row per shard *before* their own row — the
        same vocabulary in both dialects.  Single-shard layouts render
        no fanout rows, so the historical EXPLAIN output is unchanged.
        """
        rows: List[Dict[str, object]] = []
        step = 0
        for node in self._postorder():
            for fan_detail in node._explain_fanout():
                step += 1
                rows.append(
                    {
                        "step": step,
                        "node": node.kind,
                        "table": node.table_name,
                        "key": node.key_desc,
                        "detail": fan_detail,
                    }
                )
            step += 1
            rows.append(
                {
                    "step": step,
                    "node": node.kind,
                    "table": node.table_name,
                    "key": node.key_desc,
                    "detail": node.detail(),
                }
            )
        return rows

    def _explain_fanout(self) -> Tuple[str, ...]:
        """Per-shard EXPLAIN rows this operator scatters into (default none)."""
        return ()

    def operator_stats(self) -> List[OperatorStats]:
        return [
            OperatorStats(
                node=node.kind,
                table=node.table_name,
                detail=node.detail(),
                calls=node.calls,
                rows_in=node.rows_in,
                rows_out=node.rows_out,
                keys_batched=getattr(node, "keys_batched", 0),
                blocks_cached=getattr(node, "blocks_cached", 0),
                seconds=node.seconds,
                blocks_skipped=getattr(node, "blocks_skipped", 0),
                rows_pruned=getattr(node, "rows_pruned", 0),
                cpu_seconds=node.cpu_seconds,
            )
            for node in self._postorder()
        ]

    def reset_counters(self) -> None:
        for node in self._postorder():
            node.calls = 0
            node.rows_in = 0
            node.rows_out = 0
            node.seconds = 0.0
            node.cpu_seconds = 0.0
            if hasattr(node, "keys_batched"):
                node.keys_batched = 0
                node.blocks_cached = 0
            if hasattr(node, "rows_pruned"):
                node.rows_pruned = 0
                node.blocks_skipped = 0
            if hasattr(node, "shard_rows"):
                node.shard_rows.clear()

    def _postorder(self) -> List["PlanNode"]:
        out: List[PlanNode] = []
        for child in self.children:
            out.extend(child._postorder())
        out.append(self)
        return out

    def __repr__(self) -> str:
        return f"{self.kind}({self.detail()})"


# ----------------------------------------------------------------------
# leaf access paths
# ----------------------------------------------------------------------
class _Access(PlanNode):
    """Shared shape of the storage-bound leaves.

    ``wrap`` (optional) re-shapes each fetched row before it enters the
    stream — the SQL binding uses it to namespace rows as
    ``{alias: row}`` for joins.  It is representation plumbing, not an
    operator, so it never shows up in EXPLAIN.  ``cache_probe``
    (optional) reads the storage object's block-cache hit counter so the
    leaf can attribute cache-backed block reads to itself.
    """

    __slots__ = ("table", "_table_name", "_key_desc", "wrap", "cache_probe")

    def __init__(self, table, table_name: str, key_desc: Optional[str],
                 wrap: Optional[Callable] = None,
                 cache_probe: Optional[Callable[[], int]] = None) -> None:
        super().__init__()
        self.table = table
        self._table_name = table_name
        self._key_desc = key_desc
        self.wrap = wrap
        self.cache_probe = cache_probe

    @property
    def table_name(self) -> Optional[str]:
        return self._table_name

    @property
    def key_desc(self) -> Optional[str]:
        return self._key_desc

    def _emit(self, rows: List[Dict[str, object]]) -> List[Dict[str, object]]:
        self.calls += 1
        self.rows_out += len(rows)
        if self.wrap is not None:
            wrap = self.wrap
            return [wrap(row) for row in rows]
        return rows


class PointLookup(_Access):
    """One primary-key ``get``: the ``WHERE pk = x`` access path."""

    kind = "PointLookup"
    __slots__ = ("key", "keys_batched", "blocks_cached")

    def __init__(self, table, key: Callable, table_name: str, key_desc: str,
                 wrap=None, cache_probe=None) -> None:
        super().__init__(table, table_name, key_desc, wrap, cache_probe)
        self.key = key
        self.keys_batched = 0
        self.blocks_cached = 0

    def _execute(self, ctx: _Context) -> List[Dict[str, object]]:
        before = self.cache_probe() if self.cache_probe is not None else 0
        row = self.table.get(self.key(ctx.params))
        if self.cache_probe is not None:
            self.blocks_cached += self.cache_probe() - before
        self.keys_batched += 1
        return self._emit([row] if row is not None else [])

    def detail(self) -> str:
        return "primary key"


class MultiGet(_Access):
    """One batched ``get_many`` over a runtime key list (pk ``IN`` and
    the stored-query walks' per-level cell fetches)."""

    kind = "MultiGet"
    __slots__ = ("keys", "keys_batched", "blocks_cached")

    def __init__(self, table, keys: Callable, table_name: str, key_desc: str,
                 wrap=None, cache_probe=None) -> None:
        super().__init__(table, table_name, key_desc, wrap, cache_probe)
        self.keys = keys
        self.keys_batched = 0
        self.blocks_cached = 0

    def _execute(self, ctx: _Context) -> List[Dict[str, object]]:
        resolved = list(self.keys(ctx.params))
        self.keys_batched += len(resolved)
        before = self.cache_probe() if self.cache_probe is not None else 0
        fetched = [row for row in self.table.get_many(resolved) if row is not None]
        if self.cache_probe is not None:
            self.blocks_cached += self.cache_probe() - before
        return self._emit(fetched)

    def _explain_fanout(self) -> Tuple[str, ...]:
        # Batched reads scatter-gather inside storage objects that route
        # point reads through the ring (``scatter_reads``); the fanout
        # rows surface that worst case — at runtime only the shards the
        # key list actually hits are walked.
        shards = _shard_count(self.table)
        if shards <= 1 or not getattr(self.table, "scatter_reads", False):
            return ()
        return tuple(f"fanout shard={i}" for i in range(shards))

    def detail(self) -> str:
        return "primary key, batched"


class IndexScan(_Access):
    """An equality probe through a secondary index — or, for relational
    composite keys, a clustered primary-key *prefix* scan.

    ``pushed`` (an optional :class:`repro.query.pushdown.PushedPredicate`)
    carries the residual conditions the storage layer can evaluate
    itself; the fetched rows arrive pre-filtered and the pruning counts
    accumulate on the node (``rows_pruned``/``blocks_skipped``).
    """

    kind = "IndexScan"
    PK_PREFIX = "pk-prefix"
    SECONDARY = "secondary-index"
    __slots__ = ("column", "value", "access", "pushed", "blocks_skipped", "rows_pruned")

    def __init__(self, table, column: str, value: Callable, table_name: str,
                 access: str = SECONDARY, wrap=None, cache_probe=None,
                 pushed=None) -> None:
        super().__init__(table, table_name, column, wrap, cache_probe)
        self.column = column
        self.value = value
        self.access = access
        self.pushed = pushed
        self.blocks_skipped = 0
        self.rows_pruned = 0

    def _execute(self, ctx: _Context) -> List[Dict[str, object]]:
        resolved = self.value(ctx.params)
        if self.pushed is not None:
            bound = self.pushed.bind(ctx.params)
            if self.access == self.PK_PREFIX:
                fetched = self.table.lookup_pk_prefix(resolved, pushed=bound)
            else:
                fetched = self.table.lookup_indexed(
                    self.column, resolved, pushed=bound
                )
            self.blocks_skipped += bound.blocks_skipped
            self.rows_pruned += bound.rows_pruned
        elif self.access == self.PK_PREFIX:
            fetched = self.table.lookup_pk_prefix(resolved)
        else:
            fetched = self.table.lookup_indexed(self.column, resolved)
        return self._emit(fetched)

    def detail(self) -> str:
        if self.pushed is not None:
            return f"{self.access}, pushed={self.pushed.describe()}"
        return self.access


class FullScan(_Access):
    """Read every live row — the path of last resort.

    With a ``pushed`` predicate the storage layer filters during the
    scan: zone-mapped columnar blocks may be skipped unread, and rows
    failing the predicate are pruned before materialization (see
    :mod:`repro.query.pushdown`).
    """

    kind = "FullScan"
    __slots__ = ("pushed", "blocks_skipped", "rows_pruned", "shard_rows")

    def __init__(self, table, table_name: str, wrap=None, pushed=None) -> None:
        super().__init__(table, table_name, None, wrap)
        self.pushed = pushed
        self.blocks_skipped = 0
        self.rows_pruned = 0
        # Cumulative rows gathered per shard id; EXPLAIN ANALYZE reads
        # this to annotate the ``fanout shard=<i>`` rows with actuals.
        self.shard_rows: Dict[int, int] = {}

    def _execute(self, ctx: _Context) -> List[Dict[str, object]]:
        if _shard_count(self.table) > 1:
            return self._emit(self._scatter_rows(ctx))
        if self.pushed is None:
            return self._emit(list(self.table.scan()))
        bound = self.pushed.bind(ctx.params)
        fetched = list(self.table.scan(pushed=bound))
        self.blocks_skipped += bound.blocks_skipped
        self.rows_pruned += bound.rows_pruned
        return self._emit(fetched)

    def _scatter_rows(self, ctx: _Context) -> List[Dict[str, object]]:
        """Morsel-parallel scan: one shard-local task per shard on the
        table's worker pool, gathered in shard order.

        Each task binds its *own* predicate (the pruning counters on a
        :class:`~repro.query.pushdown.BoundPredicate` are mutable, so
        sharing one across threads would race) and only walks its
        shard's block lists — zone-map skips stay per-shard.  The
        per-shard counters fold into this node's totals at the gather,
        and each task runs under a ``query.shard_scan`` span that
        ``Tracer.merged()`` folds across worker roots.
        """
        table, pushed, params = self.table, self.pushed, ctx.params

        def scan_one(shard_id: int):
            bound = pushed.bind(params) if pushed is not None else None
            with _TRACER.span(
                "query.shard_scan", table=self._table_name, shard=shard_id
            ):
                rows = list(table.scan_shard(shard_id, bound))
            return rows, bound

        results = _run_sharded(
            table,
            [
                (lambda shard_id=shard_id: scan_one(shard_id))
                for shard_id in range(_shard_count(table))
            ],
        )
        fetched: List[Dict[str, object]] = []
        for shard_id, (rows, bound) in enumerate(results):
            fetched.extend(rows)
            self.shard_rows[shard_id] = self.shard_rows.get(shard_id, 0) + len(rows)
            if bound is not None:
                self.blocks_skipped += bound.blocks_skipped
                self.rows_pruned += bound.rows_pruned
        return fetched

    def _explain_fanout(self) -> Tuple[str, ...]:
        shards = _shard_count(self.table)
        if shards <= 1:
            return ()
        return tuple(f"fanout shard={i}" for i in range(shards))

    def detail(self) -> str:
        if self.pushed is not None:
            return f"full scan, pushed={self.pushed.describe()}"
        return "full scan"


# ----------------------------------------------------------------------
# row-stream transforms
# ----------------------------------------------------------------------
class _Transform(PlanNode):
    __slots__ = ("child", "_detail")

    def __init__(self, child: PlanNode, detail: str) -> None:
        super().__init__()
        self.child = child
        self._detail = detail

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def detail(self) -> str:
        return self._detail

    def _account(self, rows_in: int, rows_out: int) -> None:
        self.calls += 1
        self.rows_in += rows_in
        self.rows_out += rows_out


class Filter(_Transform):
    """Keep rows satisfying a compiled ``(row, params) -> bool`` predicate."""

    kind = "Filter"
    __slots__ = ("predicate",)

    def __init__(self, child: PlanNode, predicate: Callable, detail: str) -> None:
        super().__init__(child, detail)
        self.predicate = predicate

    def _execute(self, ctx: _Context) -> List[Dict[str, object]]:
        incoming = self.child.rows(ctx)
        predicate, params = self.predicate, ctx.params
        kept = [row for row in incoming if predicate(row, params)]
        self._account(len(incoming), len(kept))
        return kept


class Project(_Transform):
    """Map each row through a compiled projection."""

    kind = "Project"
    __slots__ = ("projector",)

    def __init__(self, child: PlanNode, projector: Callable, detail: str) -> None:
        super().__init__(child, detail)
        self.projector = projector

    def _execute(self, ctx: _Context) -> List[Dict[str, object]]:
        incoming = self.child.rows(ctx)
        projector = self.projector
        out = [projector(row) for row in incoming]
        self._account(len(incoming), len(out))
        return out


class HashJoin(_Transform):
    """Inner equi-join against a probe side built per execution.

    ``probe_factory()`` returns a ``probe(key) -> rows`` callable — a
    point/index lookup for eq_ref/index joins, or a freshly built hash
    table for the general case.  ``key_of`` extracts the join key from a
    left row; ``merge`` combines a left row with a matched right row.
    """

    kind = "HashJoin"
    __slots__ = ("probe_factory", "key_of", "merge", "_table_name", "_key_desc",
                 "build_table", "build_key", "shard_rows")

    def __init__(self, child: PlanNode, probe_factory: Callable,
                 key_of: Callable, merge: Callable,
                 table_name: str, detail: str,
                 key_desc: Optional[str] = None,
                 build_table=None, build_key: Optional[str] = None) -> None:
        super().__init__(child, detail)
        self.probe_factory = probe_factory
        self.key_of = key_of
        self.merge = merge
        self._table_name = table_name
        self._key_desc = key_desc
        # Optional declarative build-side spec: when the probe side is a
        # full-relation hash build over a sharded table, the kernel can
        # build per-shard partial hash tables in parallel and merge them,
        # instead of calling the single-threaded ``probe_factory``.
        self.build_table = build_table
        self.build_key = build_key
        # Cumulative build-side rows hashed per shard id (see FullScan).
        self.shard_rows: Dict[int, int] = {}

    @property
    def table_name(self) -> Optional[str]:
        return self._table_name

    @property
    def key_desc(self) -> Optional[str]:
        return self._key_desc

    def _probe(self):
        table, key_column = self.build_table, self.build_key
        if table is None or key_column is None or _shard_count(table) <= 1:
            return self.probe_factory()

        def build_one(shard_id: int) -> Dict[object, List]:
            with _TRACER.span(
                "query.shard_scan", table=self._table_name, shard=shard_id
            ):
                partial: Dict[object, List] = {}
                for row in table.scan_shard(shard_id):
                    key = row.get(key_column)
                    if key is not None:
                        partial.setdefault(key, []).append(row)
            return partial

        partials = _run_sharded(
            table,
            [
                (lambda shard_id=shard_id: build_one(shard_id))
                for shard_id in range(_shard_count(table))
            ],
        )
        build: Dict[object, List] = {}
        for shard_id, partial in enumerate(partials):
            # shard order keeps the merge deterministic
            built = 0
            for key, rows in partial.items():
                build.setdefault(key, []).extend(rows)
                built += len(rows)
            self.shard_rows[shard_id] = self.shard_rows.get(shard_id, 0) + built
        return lambda key: build.get(key, ())

    def _explain_fanout(self) -> Tuple[str, ...]:
        table = self.build_table
        if table is None or self.build_key is None:
            return ()
        shards = _shard_count(table)
        if shards <= 1:
            return ()
        return tuple(f"fanout shard={i}" for i in range(shards))

    def _execute(self, ctx: _Context) -> List[Dict[str, object]]:
        incoming = self.child.rows(ctx)
        probe = self._probe()
        key_of, merge = self.key_of, self.merge
        joined: List[Dict[str, object]] = []
        for row in incoming:
            key = key_of(row)
            if key is None:
                continue
            for right in probe(key):
                joined.append(merge(row, right))
        self._account(len(incoming), len(joined))
        return joined


class Aggregate(_Transform):
    """Fold the child's rows into aggregate output rows.

    The fold callable ``(rows, params) -> rows`` carries the dialect's
    grouping/labelling rules, compiled by the engine front-end from the
    shared :func:`repro.query.expr.evaluate_aggregate` primitive.

    When the engine also supplies a :class:`PartialAggregate` and the
    child is a :class:`FullScan` over a sharded table, the fold
    decomposes: each shard folds its own rows to a partial state in a
    worker (``fold_shard``), and the gather merges the states
    (``merge``) — the classic two-phase parallel aggregate.  Count-only
    partials additionally skip row materialization entirely when the
    table exposes ``count_shard``.
    """

    kind = "Aggregate"
    __slots__ = ("fold", "partial")

    def __init__(self, child: PlanNode, fold: Callable, detail: str,
                 partial: Optional["PartialAggregate"] = None) -> None:
        super().__init__(child, detail)
        self.fold = fold
        self.partial = partial

    def _execute(self, ctx: _Context) -> List[Dict[str, object]]:
        if (
            self.partial is not None
            and isinstance(self.child, FullScan)
            and _shard_count(self.child.table) > 1
        ):
            return self._execute_scatter(ctx)
        incoming = self.child.rows(ctx)
        out = self.fold(incoming, ctx.params)
        self._account(len(incoming), len(out))
        return out

    def _execute_scatter(self, ctx: _Context) -> List[Dict[str, object]]:
        """Scatter ``fold_shard`` across the child scan's shards, merge
        the partial states at the gather.

        The child FullScan never materializes a full-relation row list:
        each worker folds its shard's rows to a state immediately (and
        the count-only fast path asks the table to count without
        decoding rows at all).  The child's counters are accounted here
        so EXPLAIN/stats stay truthful about rows scanned and blocks
        skipped per shard.
        """
        child, partial, params = self.child, self.partial, ctx.params
        table, pushed, wrap = child.table, child.pushed, child.wrap
        use_count = (
            partial.count_only
            and wrap is None
            and hasattr(table, "count_shard")
        )

        def fold_one(shard_id: int):
            bound = pushed.bind(params) if pushed is not None else None
            with _TRACER.span(
                "query.shard_scan", table=child.table_name, shard=shard_id
            ):
                if use_count:
                    state = table.count_shard(shard_id, bound)
                    rows_seen = state
                else:
                    rows = list(table.scan_shard(shard_id, bound))
                    if wrap is not None:
                        rows = [wrap(row) for row in rows]
                    state = partial.fold_shard(rows, params)
                    rows_seen = len(rows)
            return state, rows_seen, bound

        results = _run_sharded(
            table,
            [
                (lambda shard_id=shard_id: fold_one(shard_id))
                for shard_id in range(_shard_count(table))
            ],
        )
        states: List[object] = []
        total_rows = 0
        for shard_id, (state, rows_seen, bound) in enumerate(results):
            states.append(state)
            total_rows += rows_seen
            child.shard_rows[shard_id] = child.shard_rows.get(shard_id, 0) + rows_seen
            if bound is not None:
                child.blocks_skipped += bound.blocks_skipped
                child.rows_pruned += bound.rows_pruned
        child.calls += 1
        child.rows_out += total_rows
        out = partial.merge(states, params)
        self._account(total_rows, len(out))
        return out


class Sort(_Transform):
    """Stable sort by a compiled key (NULLs last ascending)."""

    kind = "Sort"
    __slots__ = ("key", "descending")

    def __init__(self, child: PlanNode, key: Callable, descending: bool, detail: str) -> None:
        super().__init__(child, detail)
        self.key = key
        self.descending = descending

    def _execute(self, ctx: _Context) -> List[Dict[str, object]]:
        incoming = self.child.rows(ctx)
        out = sorted(incoming, key=self.key, reverse=self.descending)
        self._account(len(incoming), len(out))
        return out

    def detail(self) -> str:
        return f"{self._detail} {'DESC' if self.descending else 'ASC'}"


class Limit(_Transform):
    """Truncate the stream to the first ``count`` rows."""

    kind = "Limit"
    __slots__ = ("count",)

    def __init__(self, child: PlanNode, count: int) -> None:
        super().__init__(child, str(count))
        self.count = count

    def _execute(self, ctx: _Context) -> List[Dict[str, object]]:
        incoming = self.child.rows(ctx)
        out = incoming[: self.count]
        self._account(len(incoming), len(out))
        return out


# ----------------------------------------------------------------------
# the executable unit
# ----------------------------------------------------------------------
class Plan:
    """An operator tree plus the validity guards the plan cache checks.

    ``guards`` are zero-argument callables that must all return True for
    a cached plan to be replayed (the engine binding closes them over
    the resolved tables and their index signatures).  ``meta`` is an
    engine-private slot for companion compile results (projection
    templates, limits) that ride along with the cached plan.
    """

    __slots__ = ("root", "guards", "meta")

    def __init__(self, root: PlanNode, guards: Sequence[Callable[[], bool]] = (),
                 meta=None) -> None:
        self.root = root
        self.guards = tuple(guards)
        self.meta = meta

    def run(self, params: Sequence = (), timed: bool = False) -> List[Dict[str, object]]:
        return self.root.run(params, timed)

    def valid(self) -> bool:
        return all(guard() for guard in self.guards)

    def explain(self) -> List[Dict[str, object]]:
        return self.root.explain()

    def operator_stats(self) -> List[OperatorStats]:
        return self.root.operator_stats()

    def reset_counters(self) -> None:
        self.root.reset_counters()

    def __repr__(self) -> str:
        chain = " <- ".join(row["node"] for row in self.explain())
        return f"Plan({chain})"
