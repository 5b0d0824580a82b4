"""Volcano-style plan nodes shared by both engines.

A plan is a tree of operators.  Leaves are *access paths* bound to a
storage object (a relational :class:`~repro.sqldb.table.Table` or a
:class:`~repro.nosqldb.columnfamily.ColumnFamily` — the kernel only
relies on the common duck type of two entry points:
``get_batches(keys, index=None)`` to fetch and
``scan_batches(pushed)`` to scan); inner nodes transform the
stream.  What flows between operators is the column
:class:`~repro.query.batch.Batch`: every node implements
``batches(ctx)``, pulls its child's batches and
narrows their selection vectors; row dicts are built exactly once, by
:meth:`PlanNode.run` at the ``ResultSet`` boundary, for the columns the
statement returns.  ``Sort`` and ``HashJoin`` are the only pipeline
breakers: they materialize their input rows and re-emit one row-backed
batch.

Engine front-ends compile their dialect's AST into what each node
carries — key resolvers take the bind-parameter tuple, conditions are
declarative ``(column, op, resolve)`` triples, projections are column
lists — so the kernel never sees an AST and never imports an engine
(source contract REPRO006 enforces that direction).

Every node keeps cumulative counters (``calls``, ``rows_in``,
``rows_out``, plus ``keys_batched`` and ``blocks_cached`` on batched
leaves) surfaced through :meth:`Plan.operator_stats` and the
``operators`` section of ``repro stats``.  ``EXPLAIN`` in either dialect is
:meth:`Plan.explain`: one row per operator in execution order, with the
same vocabulary everywhere.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.query.batch import Batch, RowBatch
from repro.query.pushdown import PushedCondition, narrow
from repro.telemetry import cpu_clock, get_tracer, wall_clock

_TRACER = get_tracer()


def count_rows(batches: Iterable[Batch], params: Sequence) -> List[Dict[str, object]]:
    """The COUNT(*) aggregate both dialects share: the selected rows of
    every batch, summed — no column is read."""
    return [{"count": sum(batch.count() for batch in batches)}]


class OperatorStats(NamedTuple):
    """One operator's cumulative execution counters.

    ``seconds`` is cumulative wall time spent in the operator *including
    its children* (volcano execution is pull-based, so a parent's clock
    runs while its child produces batches).  It is only accumulated while
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
    def batches(self, ctx: _Context) -> Iterable[Batch]:
        """This operator's output as a pull-based stream of batches."""
        raise NotImplementedError

    def pull(self, ctx: _Context) -> Iterable[Batch]:
        """:meth:`batches`, timed when tracing is on (or the execution
        asked to be timed): the clock runs while this operator — and the
        children it pulls from — produce each batch."""
        stream = self.batches(ctx)
        if _TRACER.enabled or ctx.timed:
            return self._clocked(stream)
        return stream

    def _clocked(self, stream: Iterable[Batch]) -> Iterator[Batch]:
        stream = iter(stream)
        while True:
            t0 = wall_clock()
            c0 = cpu_clock()
            try:
                batch = next(stream)
            except StopIteration:
                return
            finally:
                self.cpu_seconds += cpu_clock() - c0
                self.seconds += wall_clock() - t0
            yield batch

    def run(self, params: Sequence = (), timed: bool = False) -> List[Dict[str, object]]:
        """Execute the subtree rooted here with ``params`` bound and
        materialize its rows — the ``ResultSet`` boundary."""
        rows: Optional[List[Dict[str, object]]] = None
        for batch in self.pull(_Context(params, timed)):
            if rows is None:
                rows = batch.rows()
            else:
                rows.extend(batch.rows())
        return rows if rows is not None else []

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
        """One row per operator, numbered in execution (leaf-first)
        order — the same vocabulary in both dialects."""
        return [
            {
                "step": step,
                "node": node.kind,
                "table": node.table_name,
                "key": node.key_desc,
                "detail": node.detail(),
            }
            for step, node in enumerate(self._postorder(), 1)
        ]

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

    ``cache_probe`` (optional) reads the storage object's block-cache
    hit counter so a fetching leaf can attribute cache-backed block
    reads to itself.
    """

    __slots__ = ("table", "_table_name", "_key_desc", "cache_probe")

    def __init__(self, table, table_name: str, key_desc: Optional[str],
                 cache_probe: Optional[Callable[[], int]] = None) -> None:
        super().__init__()
        self.table = table
        self._table_name = table_name
        self._key_desc = key_desc
        self.cache_probe = cache_probe

    @property
    def table_name(self) -> Optional[str]:
        return self._table_name

    @property
    def key_desc(self) -> Optional[str]:
        return self._key_desc


class _KeyFetch(_Access):
    """The primary-key fetching leaves: one ``get_batches(keys)`` per
    call — the rows arrive as batches in requested-key order — framed by
    the cache probe, plus the two counters only they keep."""

    __slots__ = ("keys_batched", "blocks_cached")

    def __init__(self, table, table_name: str, key_desc: str, cache_probe=None) -> None:
        super().__init__(table, table_name, key_desc, cache_probe)
        self.keys_batched = 0
        self.blocks_cached = 0


class PointLookup(_KeyFetch):
    """One primary-key fetch: the ``WHERE pk = x`` access path."""

    kind = "PointLookup"
    __slots__ = ("key",)

    def __init__(self, table, key: Callable, table_name: str, key_desc: str,
                 cache_probe=None) -> None:
        super().__init__(table, table_name, key_desc, cache_probe)
        self.key = key

    def batches(self, ctx: _Context) -> Iterable[Batch]:
        probe = self.cache_probe
        before = probe() if probe is not None else 0
        fetched = self.table.get_batches((self.key(ctx.params),))
        if probe is not None:
            self.blocks_cached += probe() - before
        self.calls += 1
        self.keys_batched += 1
        self.rows_out += len(fetched)  # one key: at most one one-row batch
        return fetched

    def detail(self) -> str:
        return "primary key"


class MultiGet(_KeyFetch):
    """One batched fetch over a runtime key list (pk ``IN`` and the
    stored-query walks' per-level cell fetches)."""

    kind = "MultiGet"
    __slots__ = ("keys",)

    def __init__(self, table, keys: Callable, table_name: str, key_desc: str,
                 cache_probe=None) -> None:
        super().__init__(table, table_name, key_desc, cache_probe)
        self.keys = keys

    def batches(self, ctx: _Context) -> Iterable[Batch]:
        resolved = list(self.keys(ctx.params))
        self.keys_batched += len(resolved)
        probe = self.cache_probe
        before = probe() if probe is not None else 0
        fetched = self.table.get_batches(resolved)
        if probe is not None:
            self.blocks_cached += probe() - before
        self.calls += 1
        for batch in fetched:
            self.rows_out += batch.count()
        return fetched

    def detail(self) -> str:
        return "primary key, batched"


class IndexScan(_Access):
    """An equality probe through a secondary index — or, for relational
    composite keys, a clustered primary-key *prefix* scan.

    ``pushed`` (an optional :class:`repro.query.pushdown.PushedPredicate`)
    carries the residual conditions evaluated on the fetched batch
    before it leaves the node (index probes are point reads, so there is
    no block skipping); the pruning count accumulates on the node.
    """

    kind = "IndexScan"
    PK_PREFIX = "pk-prefix"
    SECONDARY = "secondary-index"
    __slots__ = ("column", "value", "access", "pushed", "blocks_skipped", "rows_pruned")

    def __init__(self, table, column: str, value: Callable, table_name: str,
                 access: str = SECONDARY, cache_probe=None,
                 pushed=None) -> None:
        super().__init__(table, table_name, column, cache_probe)
        self.column = column
        self.value = value
        self.access = access
        self.pushed = pushed
        self.blocks_skipped = 0
        self.rows_pruned = 0

    def batches(self, ctx: _Context) -> Iterable[Batch]:
        fetched = self.table.get_batches((self.value(ctx.params),), self.column)
        self.calls += 1
        bound = self.pushed.bind(ctx.params) if self.pushed is not None else None
        for batch in fetched:
            if bound is not None:
                bound.narrow(batch)
            self.rows_out += batch.count()
        if bound is not None:
            self.rows_pruned += bound.rows_pruned
        return fetched

    def detail(self) -> str:
        if self.pushed is not None:
            return f"{self.access}, pushed={self.pushed.describe()}"
        return self.access


class FullScan(_Access):
    """Read every live row — the path of last resort.

    The scan iterates the table's ``scan_batches(pushed)``.  With a
    ``pushed`` predicate the storage layer filters during the scan:
    zone-mapped columnar blocks may be skipped unread, and the predicate
    narrows each batch's selection on column vectors (see
    :mod:`repro.query.pushdown`).
    """

    kind = "FullScan"
    __slots__ = ("pushed", "blocks_skipped", "rows_pruned")

    def __init__(self, table, table_name: str, pushed=None) -> None:
        super().__init__(table, table_name, None)
        self.pushed = pushed
        self.blocks_skipped = 0
        self.rows_pruned = 0

    def batches(self, ctx: _Context) -> Iterator[Batch]:
        bound = self.pushed.bind(ctx.params) if self.pushed is not None else None
        self.calls += 1
        emitted = 0
        try:
            for batch in self.table.scan_batches(bound):
                emitted += batch.count()
                yield batch
        finally:
            # Also reached when a Limit above stops pulling: the
            # counters then report what the scan actually did.
            self.rows_out += emitted
            if bound is not None:
                self.blocks_skipped += bound.blocks_skipped
                self.rows_pruned += bound.rows_pruned

    def detail(self) -> str:
        if self.pushed is not None:
            return f"full scan, pushed={self.pushed.describe()}"
        return "full scan"


# ----------------------------------------------------------------------
# batch-stream transforms
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

    def _counted(self, ctx: _Context) -> Iterable[Batch]:
        """The child's batches, tallied into ``calls``/``rows_in``
        (``map``, not a generator: a point read is a single batch)."""
        self.calls += 1
        return map(self._tally, self.child.pull(ctx))

    def _tally(self, batch: Batch) -> Batch:
        self.rows_in += batch.count()
        return batch

    def _input_rows(self, ctx: _Context) -> List[Dict[str, object]]:
        """A pipeline breaker's input: the child's rows, materialized."""
        return [row for batch in self._counted(ctx) for row in batch.rows()]


class Filter(_Transform):
    """Keep the rows satisfying one declarative condition: the selection
    vector narrows, nothing is copied."""

    kind = "Filter"
    __slots__ = ("condition",)

    def __init__(self, child: PlanNode, condition: PushedCondition) -> None:
        super().__init__(child, condition.desc)
        self.condition = condition

    def batches(self, ctx: _Context) -> Iterable[Batch]:
        column, op, resolve, _ = self.condition
        bound = ((column, op, resolve(ctx.params)),)

        def step(batch: Batch) -> Batch:
            narrow(batch, bound)
            self.rows_out += batch.count()
            return batch

        return map(step, self._counted(ctx))


class Project(_Transform):
    """Choose the columns (and their output labels) rows are built from
    when the batch is materialized; ``names=None`` keeps every column."""

    kind = "Project"
    __slots__ = ("names", "labels")

    def __init__(self, child: PlanNode, names: Optional[Sequence[str]],
                 detail: str, labels: Optional[Sequence[str]] = None) -> None:
        super().__init__(child, detail)
        self.names = names
        self.labels = labels if labels is not None else names

    def batches(self, ctx: _Context) -> Iterable[Batch]:
        return map(self._step, self._counted(ctx))

    def _step(self, batch: Batch) -> Batch:
        self.rows_out += batch.count()
        if self.names is not None:
            batch.names = self.names
            batch.labels = self.labels
        return batch


class HashJoin(_Transform):
    """Inner equi-join against a probe side built per execution.

    The probe side is either ``probe_factory()`` — returning a
    ``probe(key) -> rows`` callable, a point/index lookup for
    eq_ref/index joins — or a declared ``build_table``/``build_key``:
    the kernel then hashes that relation itself.  ``key_of``
    extracts the join key from a left row; ``merge`` combines a left row
    with a matched right row.  A pipeline breaker: left rows are
    materialized, the joined rows leave as one row-backed batch.
    """

    kind = "HashJoin"
    __slots__ = ("probe_factory", "key_of", "merge", "_table_name", "_key_desc",
                 "build_table", "build_key")

    def __init__(self, child: PlanNode, key_of: Callable, merge: Callable,
                 table_name: str, detail: str,
                 key_desc: Optional[str] = None,
                 probe_factory: Optional[Callable] = None,
                 build_table=None, build_key: Optional[str] = None) -> None:
        super().__init__(child, detail)
        self.probe_factory = probe_factory
        self.key_of = key_of
        self.merge = merge
        self._table_name = table_name
        self._key_desc = key_desc
        self.build_table = build_table
        self.build_key = build_key

    @property
    def table_name(self) -> Optional[str]:
        return self._table_name

    @property
    def key_desc(self) -> Optional[str]:
        return self._key_desc

    def _probe(self):
        table, key_column = self.build_table, self.build_key
        if table is None:
            return self.probe_factory()
        build: Dict[object, List] = {}
        for batch in table.scan_batches():
            for row in batch.rows():
                key = row.get(key_column)
                if key is not None:
                    build.setdefault(key, []).append(row)
        return lambda key: build.get(key, ())

    def batches(self, ctx: _Context) -> Iterator[Batch]:
        incoming = self._input_rows(ctx)
        probe = self._probe()
        key_of, merge = self.key_of, self.merge
        joined: List[Dict[str, object]] = []
        for row in incoming:
            key = key_of(row)
            if key is None:
                continue
            for right in probe(key):
                joined.append(merge(row, right))
        self.rows_out += len(joined)
        yield RowBatch(joined)


class Aggregate(_Transform):
    """Fold the child's batches into aggregate output rows.

    ``finish(batches, params) -> rows`` carries the dialect's grouping
    and labelling rules, compiled by the engine front-end; it reads
    column vectors and selection counts, never rows.
    """

    kind = "Aggregate"
    __slots__ = ("finish",)

    def __init__(self, child: PlanNode, finish: Callable, detail: str) -> None:
        super().__init__(child, detail)
        self.finish = finish

    def batches(self, ctx: _Context) -> Iterator[Batch]:
        out = self.finish(self._counted(ctx), ctx.params)
        self.rows_out += len(out)
        yield RowBatch(out)


class Sort(_Transform):
    """Stable sort by a compiled row key (NULLs last ascending) — a
    pipeline breaker."""

    kind = "Sort"
    __slots__ = ("key", "descending")

    def __init__(self, child: PlanNode, key: Callable, descending: bool, detail: str) -> None:
        super().__init__(child, detail)
        self.key = key
        self.descending = descending

    def batches(self, ctx: _Context) -> Iterator[Batch]:
        out = sorted(self._input_rows(ctx), key=self.key, reverse=self.descending)
        self.rows_out += len(out)
        yield RowBatch(out)

    def detail(self) -> str:
        return f"{self._detail} {'DESC' if self.descending else 'ASC'}"


class Limit(_Transform):
    """Truncate the stream to the first ``count`` rows — and stop
    pulling from the child once it has them."""

    kind = "Limit"
    __slots__ = ("count",)

    def __init__(self, child: PlanNode, count: int) -> None:
        super().__init__(child, str(count))
        self.count = count

    def batches(self, ctx: _Context) -> Iterator[Batch]:
        wanted = self.count
        if wanted <= 0:
            self.calls += 1
            return
        for batch in self._counted(ctx):
            got = batch.count()
            if got > wanted:
                positions = batch.sel if batch.sel is not None else range(batch.n)
                batch.sel = list(positions[:wanted])
                got = wanted
            self.rows_out += got
            wanted -= got
            yield batch
            if not wanted:
                return


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

    def columns(self, names: Sequence[str], params: Sequence = ()) -> List[List]:
        """The result as one value list per column in ``names`` — the
        exit for callers that consume columns; no row is built."""
        out: List[List] = [[] for _ in names]
        for batch in self.root.pull(_Context(params)):
            for values, name in zip(out, names):
                values.extend(batch.values(name))
        return out

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
