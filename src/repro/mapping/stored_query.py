"""Query primitives over *stored* DWARF cubes (paper §3, §7).

The ``entry_node_id`` column "serves as the entry point for all traversal
functions" — these functions.  A :func:`stored_point_query` answers a
point/ALL query directly against the storage engine, without rebuilding
the whole cube, using whatever access paths the schema offers:

* **NoSQL-DWARF** — walk node rows by primary key; each node's
  ``childrenIds`` set gives the candidate cells, read by primary key.
* **NoSQL-Min** — no node rows: descend through the ``parentNodeId``
  *secondary index*, which is exactly the query workload the paper keeps
  those expensive indexes for.
* **MySQL-DWARF** — a NODE_CHILDREN prefix probe plus one batched CELL
  fetch per level.
* **MySQL-Min** — no node construct and no indexes: the paper predicts
  "a significant impact on query times as DWARF Node reconstruction is
  required"; the strategy scans the cube's cells once, reconstructs
  nodes in memory, and keeps the reconstruction in a version-guarded
  cache so repeated queries only rescan after a mutation.

Every fetch the walks perform is a :mod:`repro.query` plan.  Statement
shapes (node lookups, prefix probes, the reconstruction scan) go through
the session's plan cache as prepared text; the per-level cell-match loops
are *direct* kernel plans — ``MultiGet → Filter`` (or ``IndexScan →
Filter`` for NoSQL-Min) — built once per mapper, cached in the same
:class:`~repro.query.PlanCache` under ``stored:`` labels, and guarded
against DDL exactly like session plans.  :func:`explain_strategy` renders
each strategy's access paths in the shared EXPLAIN vocabulary.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.aggregators import Aggregator
from repro.core.errors import QueryError
from repro.core.tuples import member_sort_key
from repro.dwarf.cell import ALL
from repro.mapping.base import (
    ALL_KEY_TEXT,
    MappingError,
    cached_statement,
    encode_member,
)
from repro.mapping.incremental import EpochView, resolve_epoch
from repro.mapping.mysql_dwarf import MySQLDwarfMapper
from repro.mapping.mysql_min import MySQLMinMapper
from repro.mapping.nosql_dwarf import NoSQLDwarfMapper
from repro.mapping.nosql_min import NoSQLMinMapper
from repro.nosqldb.sharding import resolve_shards
from repro.query import (
    Aggregate,
    Filter,
    FullScan,
    IndexScan,
    MultiGet,
    Plan,
    PushedCondition,
    PushedPredicate,
    annotate_explain,
    count_partial,
    counter_totals,
    snapshot_counters,
    table_guard,
)
from repro.telemetry import get_query_log, get_registry, get_tracer, wall_clock

_M_STORED_QUERIES = get_registry().counter(
    "mapper_stored_queries_total",
    "stored point queries answered, by storage schema",
    labels=("schema",),
)

_QUERY_LOG = get_query_log()


# A per-mapper prepared-statement cache for the stored-query walks: each
# distinct statement shape is parsed once per mapper; its plan lives in
# the session's PlanCache, so after the first execution the walks only
# bind parameters.
_prepared = cached_statement


def _kernel_plan(mapper, label: str, build) -> Plan:
    """A direct :mod:`repro.query` plan, memoised in the session's cache.

    Keyed ``(scope, "stored:<label>", shards, cube_epoch)`` next to the
    statement-text entries, so warm stored-query walks register as
    plan-cache hits and DDL on the underlying table invalidates them
    through the plan's guards like any other cached plan.  The key's
    tail closes two staleness windows: a changed ``REPRO_SHARDS`` layout
    (a fanout plan cached under the old shard count must not serve the
    new one) and an epoch flip of a maintained cube (pre-flip kernels
    become unreachable and LRU-evict instead of walking superseded rows).
    """
    session = mapper.session
    scope = getattr(mapper, "keyspace_name", None) or mapper.database_name
    key = (scope, "stored:" + label, resolve_shards(), mapper.cube_epoch)
    plan = session.plan_cache.get(key)
    if plan is None:
        plan = build(mapper)
        session.plan_cache.put(key, plan)
    return plan


def _guarded_table(mapper, name: str):
    """``(table, guards)`` for ``name`` in the mapper's keyspace/database:
    the storage object a kernel plan binds plus the plan-cache guard that
    revalidates it."""
    engine = mapper.session.engine
    if getattr(mapper, "keyspace_name", None) is not None:
        resolve = lambda: engine.keyspace(mapper.keyspace_name).table(name)
    else:
        resolve = lambda: engine.database(mapper.database_name).table(name)
    table = resolve()
    return table, (table_guard(resolve, table),)


def _stored_aggregator(mapper, view: EpochView) -> Aggregator:
    """The maintained cube's aggregate function, read from the dimension
    registry of the current base and cached per ``(logical id, epoch)``
    (an epoch flip clears the cache through ``bump_cube_epoch``)."""
    cache = getattr(mapper, "_aggregator_cache", None)
    if cache is None:
        cache = {}
        mapper._aggregator_cache = cache
    key = (view.logical_id, view.epoch)
    aggregator = cache.get(key)
    if aggregator is None:
        text = f"SELECT * FROM {mapper.dimension_table} WHERE schema_id = ?"
        if getattr(mapper, "keyspace_name", None) is not None:
            text += " ALLOW FILTERING"
        row = mapper.session.execute_prepared(
            _prepared(mapper, text), (view.base_id,)
        ).one()
        if row is None:
            raise MappingError(
                f"maintained cube {view.logical_id} has no dimension rows "
                f"for base {view.base_id}"
            )
        aggregator = Aggregator.get(row["aggregator"])
        cache[key] = aggregator
    return aggregator


def _build_nosql_cells(mapper) -> Plan:
    """NoSQL-DWARF: all candidate cells of one node, block-batched."""
    table, guards = _guarded_table(mapper, "dwarf_cell")
    fetch = MultiGet(
        table, lambda params: params[0], "dwarf_cell", "id",
        cache_probe=lambda: table.block_cache_hits,
    )
    return Plan(fetch, guards=guards)


def _build_nosql_cell_match(mapper) -> Plan:
    """NoSQL-DWARF: the per-level cell match, ``MultiGet → Filter``; the
    walk reads the match's :data:`_NOSQL_MATCH_COLUMNS` only."""
    table, guards = _guarded_table(mapper, "dwarf_cell")
    fetch = MultiGet(
        table, lambda params: params[0], "dwarf_cell", "id",
        cache_probe=lambda: table.block_cache_hits,
    )
    match = Filter(
        fetch, PushedCondition("key", "=", lambda params: params[1], "key = ?1")
    )
    return Plan(match, guards=guards)


def _build_nosql_min_sibling_match(mapper) -> Plan:
    """NoSQL-Min: the per-level descent, an ``IndexScan`` with the name
    match pushed into the storage layer (no Filter operator remains —
    fetched siblings arrive pre-matched); the walk reads the match's
    :data:`_NOSQL_MIN_MATCH_COLUMNS` only."""
    table, guards = _guarded_table(mapper, "dwarf_cell")
    pushed = PushedPredicate(
        (PushedCondition("name", "=", lambda params: params[1], "name = ?1"),)
    )
    scan = IndexScan(
        table, "parentNodeId", lambda params: params[0], "dwarf_cell",
        cache_probe=lambda: table.block_cache_hits,
        pushed=pushed,
    )
    return Plan(scan, guards=guards)


def _build_nosql_cube_scan(mapper) -> Plan:
    """NoSQL-DWARF scan strategy: one pushed full scan over the cube.

    ``schema_id = ?0`` travels into the storage layer, so zone-mapped
    columnar blocks holding only other cubes' cells are skipped unread.
    """
    table, guards = _guarded_table(mapper, "dwarf_cell")
    pushed = PushedPredicate(
        (PushedCondition("schema_id", "=", lambda params: params[0], "schema_id = ?0"),)
    )
    scan = FullScan(table, "dwarf_cell", pushed=pushed)
    return Plan(scan, guards=guards)


def _build_nosql_cube_scan_keys(mapper) -> Plan:
    """The cube scan narrowed further by ``key IN ?1`` (all-keyed selects)."""
    table, guards = _guarded_table(mapper, "dwarf_cell")
    pushed = PushedPredicate((
        PushedCondition("schema_id", "=", lambda params: params[0], "schema_id = ?0"),
        PushedCondition("key", "IN", lambda params: params[1], "key IN ?1"),
    ))
    scan = FullScan(table, "dwarf_cell", pushed=pushed)
    return Plan(scan, guards=guards)


def _build_nosql_cube_count(mapper) -> Plan:
    """NoSQL-DWARF: count one stored cube's cells, ``Aggregate(FullScan)``.

    The ``schema_id = ?0`` pushdown skips zone-refuted columnar blocks
    and the count sums the surviving selections — no cell row is ever
    materialised (docs/query_kernel.md).
    """
    table, guards = _guarded_table(mapper, "dwarf_cell")
    pushed = PushedPredicate(
        (PushedCondition("schema_id", "=", lambda params: params[0], "schema_id = ?0"),)
    )
    scan = FullScan(table, "dwarf_cell", pushed=pushed)
    return Plan(Aggregate(scan, count_partial(), "count(*)"), guards=guards)


def stored_cell_count(mapper, schema_id: int) -> int:
    """How many cells the stored cube ``schema_id`` holds, counted in
    storage (NoSQL-DWARF only).

    Equals ``len(list(stored_select(mapper, schema_id, strategy="scan",
    ...)))`` over every cell rather than a constrained slice — the
    benchmark-grade aggregate the scatter-gather path accelerates.
    """
    if not isinstance(mapper, NoSQLDwarfMapper):
        raise MappingError("stored_cell_count is implemented for NoSQL-DWARF storage")
    t0 = wall_clock() if _QUERY_LOG.enabled else 0.0
    view = resolve_epoch(mapper, schema_id)
    cube_ids = (schema_id,) if view is None else view.cube_ids
    for physical_id in cube_ids:
        mapper.info(physical_id)  # validate
    plan = _kernel_plan(mapper, "nosql_dwarf:cube_count", _build_nosql_cube_count)
    before = counter_totals(plan) if _QUERY_LOG.enabled else None
    with get_tracer().span("stored.cell_count", schema=mapper.name):
        total = sum(plan.run((physical_id,))[0]["count"] for physical_id in cube_ids)
    if _QUERY_LOG.enabled:
        now = counter_totals(plan)
        _QUERY_LOG.record(
            f"stored:{mapper.name}:cell_count",
            "stored",
            wall_clock() - t0,
            rows=len(cube_ids),
            cache_hits=now["cache_hits"] - before["cache_hits"],
            blocks_skipped=now["blocks_skipped"] - before["blocks_skipped"],
            rows_pruned=now["rows_pruned"] - before["rows_pruned"],
            shards=resolve_shards(),
            epoch=mapper.cube_epoch,
        )
    return total


def _build_mysql_cell_match(mapper) -> Plan:
    """MySQL-DWARF: the per-level cell match, ``MultiGet → Filter``; the
    walk reads the match's :data:`_MYSQL_MATCH_COLUMNS` only."""
    table, guards = _guarded_table(mapper, "CELL")
    fetch = MultiGet(table, lambda params: params[0], "CELL", "id")
    match = Filter(
        fetch,
        PushedCondition("cell_key", "=", lambda params: params[1], "cell_key = ?1"),
    )
    return Plan(match, guards=guards)


#: What a descent reads of the cell it matched at one level — fetched
#: through the plans' column exit (:meth:`~repro.query.Plan.columns`),
#: so no other column of the cell is decoded and no row is built.
_NOSQL_MATCH_COLUMNS = ("pointerNode", "measure", "leaf")
_NOSQL_MIN_MATCH_COLUMNS = ("childNodeId", "item")
_MYSQL_MATCH_COLUMNS = ("id", "measure", "leaf")


def stored_point_query(
    mapper,
    schema_id: int,
    coordinates: Sequence,
):
    """Answer a point query against the stored cube ``schema_id``.

    ``coordinates`` holds one entry per dimension — a member value or
    :data:`~repro.dwarf.ALL`.  Returns the aggregate (or ``None`` when no
    fact matches), identical to ``mapper.load(schema_id).value(...)``.

    When ``schema_id`` names a *maintained* cube (one with an epoch row,
    see :mod:`repro.mapping.incremental`), the walk reads through the
    epoch: the same strategy runs once per physical cube of the snapshot
    — base plus any unmerged deltas — and the per-cube answers combine
    with the schema's aggregate function.  The epoch row is resolved in
    one primary-key read, so a query observes either the pre-merge
    overlay or the post-merge base, never a torn mix of the two.
    """
    if not _QUERY_LOG.enabled:
        return _point_query(mapper, schema_id, coordinates)
    # Query-history path: frame the walk's plan counters so the record
    # carries this query's cache/pushdown actuals, not lifetime totals.
    t0 = wall_clock()
    plans = [plan for plan in _strategy_plans(mapper).values() if plan is not None]
    before = [counter_totals(plan) for plan in plans]
    answer = _point_query(mapper, schema_id, coordinates)
    deltas = {"cache_hits": 0, "blocks_skipped": 0, "rows_pruned": 0}
    for plan, b in zip(plans, before):
        now = counter_totals(plan)
        for name in deltas:
            deltas[name] += now[name] - b[name]
    _QUERY_LOG.record(
        f"stored:{mapper.name}:point_query",
        "stored",
        wall_clock() - t0,
        rows=0 if answer is None else 1,
        cache_hits=deltas["cache_hits"],
        blocks_skipped=deltas["blocks_skipped"],
        rows_pruned=deltas["rows_pruned"],
        shards=resolve_shards(),
        epoch=mapper.cube_epoch,
    )
    return answer


def _point_query(mapper, schema_id: int, coordinates: Sequence):
    """The :func:`stored_point_query` walk, shared by the plain, logged
    and analyzed entry points."""
    strategy = _STRATEGIES.get(type(mapper))
    if strategy is None:
        raise MappingError(f"no stored-query strategy for {type(mapper).__name__}")
    keys = [ALL_KEY_TEXT if c is ALL else encode_member(c) for c in coordinates]
    _M_STORED_QUERIES.labels(mapper.name).inc()
    view = resolve_epoch(mapper, schema_id)
    with get_tracer().span("stored.point_query", schema=mapper.name):
        if view is None:
            return strategy(mapper, schema_id, keys)
        if len(view.cube_ids) == 1:
            return strategy(mapper, view.base_id, keys)
        answers = [
            answer
            for physical_id in view.cube_ids
            for answer in (strategy(mapper, physical_id, keys),)
            if answer is not None
        ]
        if not answers:
            return None
        aggregator = _stored_aggregator(mapper, view)
        return reduce(aggregator.merge, answers)


# ----------------------------------------------------------------------
# NoSQL-DWARF: primary-key walks over node and cell rows
# ----------------------------------------------------------------------
def _nosql_dwarf_point(mapper: NoSQLDwarfMapper, schema_id: int, keys: List[str]):
    session = mapper.session
    info = mapper.info(schema_id)
    node_statement = _prepared(mapper, "SELECT childrenIds FROM dwarf_node WHERE id = ?")
    cell_match = _kernel_plan(mapper, "nosql_dwarf:cell_match", _build_nosql_cell_match)
    node_id: Optional[int] = info.entry_node_id
    measure = None
    for level, key_text in enumerate(keys):
        if node_id is None:
            return None
        node_row = session.execute_prepared(node_statement, (node_id,)).one()
        if node_row is None:
            raise MappingError(f"stored node {node_id} missing")
        cell_ids = sorted(node_row["childrenIds"] or ())
        # One batched multi-get for all candidate cells of this node —
        # grouped by SSTable block — with the key match applied by the
        # plan's Filter operator.
        pointers, measures, leaves = cell_match.columns(
            _NOSQL_MATCH_COLUMNS, (cell_ids, key_text)
        )
        if not pointers:
            return None
        node_id = pointers[0]
        measure = measures[0]
        if leaves[0] and level != len(keys) - 1:
            raise QueryError("coordinate vector longer than the stored cube's depth")
    return measure


# ----------------------------------------------------------------------
# NoSQL-Min: descend through the parentNodeId secondary index
# ----------------------------------------------------------------------
def _nosql_min_point(mapper: NoSQLMinMapper, schema_id: int, keys: List[str]):
    session = mapper.session
    mapper.info(schema_id)  # validate
    node_id: Optional[int] = mapper._entry_cache.get(schema_id)
    if node_id is None:
        # No entry_node_id in Table 3: one filtered scan, then cached.
        first = session.execute_prepared(
            _prepared(
                mapper,
                "SELECT * FROM dwarf_cell WHERE root = true AND cubeid = ? ALLOW FILTERING",
            ),
            (schema_id,),
        ).one()
        if first is None:
            return None
        node_id = first["parentNodeId"]
        mapper._entry_cache[schema_id] = node_id
    # The secondary index the schema pays for (paper §5.1), probed and
    # name-matched by one IndexScan → Filter plan per level.
    sibling_match = _kernel_plan(
        mapper, "nosql_min:sibling_match", _build_nosql_min_sibling_match
    )
    measure = None
    for key_text in keys:
        if node_id is None:
            return None
        children, items = sibling_match.columns(
            _NOSQL_MIN_MATCH_COLUMNS, (node_id, key_text)
        )
        if not children:
            return None
        node_id = children[0]
        measure = items[0]
    return measure


# ----------------------------------------------------------------------
# MySQL-DWARF: a NODE_CHILDREN prefix probe + one batched CELL fetch per level
# ----------------------------------------------------------------------
def _mysql_dwarf_point(mapper: MySQLDwarfMapper, schema_id: int, keys: List[str]):
    session = mapper.session
    info = mapper.info(schema_id)
    children_statement = _prepared(
        mapper, "SELECT cell_id FROM NODE_CHILDREN WHERE node_id = ?"
    )
    pointer_statement = _prepared(
        mapper, "SELECT node_id FROM CELL_CHILDREN WHERE cell_id = ?"
    )
    cell_match = _kernel_plan(mapper, "mysql_dwarf:cell_match", _build_mysql_cell_match)
    node_id: Optional[int] = info.entry_node_id
    measure = None
    for key_text in keys:
        if node_id is None:
            return None
        # Clustered-prefix probe for the link rows, then all candidate
        # cells in one batched MultiGet (Table.get_batches) with the key
        # match applied by the plan's Filter operator — same rows, in the
        # same (cell_id-ascending) order, as the old per-level
        # NODE_CHILDREN ⋈ CELL hash join.
        children = session.execute_prepared(children_statement, (node_id,))
        cell_ids = sorted(link["cell_id"] for link in children)
        ids, measures, leaves = cell_match.columns(
            _MYSQL_MATCH_COLUMNS, (cell_ids, key_text)
        )
        if not ids:
            return None
        measure = measures[0]
        if leaves[0]:
            node_id = None
        else:
            pointer = session.execute_prepared(pointer_statement, (ids[0],)).one()
            node_id = pointer["node_id"] if pointer else None
    return measure


# ----------------------------------------------------------------------
# MySQL-Min: scan once, reconstruct nodes, walk in memory
# ----------------------------------------------------------------------
def _mysql_min_point(mapper: MySQLMinMapper, schema_id: int, keys: List[str]):
    session = mapper.session
    mapper.info(schema_id)  # validate
    table = session.engine.database(mapper.database_name).table("DWARF_CELL")
    # The reconstruction is cached against the table's mutation counter:
    # repeated queries walk the cached node map and only rescan after a
    # write invalidates it (cf. the paper's "DWARF Node reconstruction
    # is required" cost, paid once per table version instead of per query).
    # The reconstruction statement's `cubeid = ?` condition is pushed
    # into the storage layer by the SQL planner (FullScan pushed=...),
    # so other cubes' rows are pruned before materialization.
    cache = getattr(mapper, "_reconstruction_cache", None)
    if cache is None:
        cache = {}
        mapper._reconstruction_cache = cache
    cached = cache.get(schema_id)
    if cached is not None and cached[0] == table.version:
        _, by_parent, entry = cached
    else:
        rows = list(
            session.execute_prepared(
                _prepared(mapper, "SELECT * FROM DWARF_CELL WHERE cubeid = ?"),
                (schema_id,),
            )
        )
        if not rows:
            return None
        by_parent: Dict[int, List[dict]] = {}
        entry: Optional[int] = None
        for row in rows:
            by_parent.setdefault(row["parentNodeId"], []).append(row)
            if row["root"]:
                entry = row["parentNodeId"]
        if entry is None:
            raise MappingError("stored cube has no root cells")
        cache[schema_id] = (table.version, by_parent, entry)
    node_id: Optional[int] = entry
    measure = None
    for key_text in keys:
        if node_id is None:
            return None
        match = next(
            (row for row in by_parent.get(node_id, ()) if row["name"] == key_text),
            None,
        )
        if match is None:
            return None
        node_id = match["childNodeId"]
        measure = match["item"]
    return measure


_STRATEGIES = {
    NoSQLDwarfMapper: _nosql_dwarf_point,
    NoSQLMinMapper: _nosql_min_point,
    MySQLDwarfMapper: _mysql_dwarf_point,
    MySQLMinMapper: _mysql_min_point,
}


def _explain_statement(session, text: str) -> List[dict]:
    return list(session.execute("EXPLAIN " + text))


def explain_strategy(mapper, schema_id: Optional[int] = None) -> Dict[str, List[dict]]:
    """EXPLAIN every access path a :func:`stored_point_query` walk uses.

    Returns an ordered mapping of walk step → plan rows in the shared
    :mod:`repro.query` EXPLAIN vocabulary (``step``/``node``/``table``/
    ``key``/``detail``).  Plans are shape-level, so ``schema_id`` is
    accepted for symmetry with the query functions but not required.
    """
    kind = type(mapper)
    if kind not in _STRATEGIES:
        raise MappingError(f"no stored-query strategy for {kind.__name__}")
    session = mapper.session
    if kind is NoSQLDwarfMapper:
        return {
            "node": _explain_statement(
                session, "SELECT childrenIds FROM dwarf_node WHERE id = ?"
            ),
            "cells": _kernel_plan(
                mapper, "nosql_dwarf:cell_match", _build_nosql_cell_match
            ).explain(),
            "cube_scan": _kernel_plan(
                mapper, "nosql_dwarf:cube_scan", _build_nosql_cube_scan
            ).explain(),
            "cube_count": _kernel_plan(
                mapper, "nosql_dwarf:cube_count", _build_nosql_cube_count
            ).explain(),
        }
    if kind is NoSQLMinMapper:
        return {
            "entry": _explain_statement(
                session,
                "SELECT * FROM dwarf_cell WHERE root = true AND cubeid = ? ALLOW FILTERING",
            ),
            "siblings": _kernel_plan(
                mapper, "nosql_min:sibling_match", _build_nosql_min_sibling_match
            ).explain(),
        }
    if kind is MySQLDwarfMapper:
        return {
            "children": _explain_statement(
                session, "SELECT cell_id FROM NODE_CHILDREN WHERE node_id = ?"
            ),
            "cells": _kernel_plan(
                mapper, "mysql_dwarf:cell_match", _build_mysql_cell_match
            ).explain(),
            "pointer": _explain_statement(
                session, "SELECT node_id FROM CELL_CHILDREN WHERE cell_id = ?"
            ),
        }
    if kind is MySQLMinMapper:
        return {
            "cells": _explain_statement(
                session, "SELECT * FROM DWARF_CELL WHERE cubeid = ?"
            ),
        }
    raise MappingError(f"no stored-query strategy for {kind.__name__}")


def _strategy_plans(mapper) -> Dict[str, Optional[Plan]]:
    """Walk step → live plan for the mapper's point-query access paths.

    Kernel plans are fetched (building on first use) through
    :func:`_kernel_plan`; statement plans are *peeked* from the session's
    cache under their ``(scope, text)`` key — a statement that has never
    executed maps to ``None`` rather than being compiled here, so
    reading the plans never changes what a later execution would do.
    """
    kind = type(mapper)
    if kind not in _STRATEGIES:
        raise MappingError(f"no stored-query strategy for {kind.__name__}")
    session = mapper.session
    scope = getattr(mapper, "keyspace_name", None) or mapper.database_name

    def stmt(text: str) -> Optional[Plan]:
        plan = session.plan_cache.peek((scope, text))
        return plan if isinstance(plan, Plan) else None

    if kind is NoSQLDwarfMapper:
        return {
            "node": stmt("SELECT childrenIds FROM dwarf_node WHERE id = ?"),
            "cells": _kernel_plan(
                mapper, "nosql_dwarf:cell_match", _build_nosql_cell_match
            ),
        }
    if kind is NoSQLMinMapper:
        return {
            "entry": stmt(
                "SELECT * FROM dwarf_cell WHERE root = true AND cubeid = ? ALLOW FILTERING"
            ),
            "siblings": _kernel_plan(
                mapper, "nosql_min:sibling_match", _build_nosql_min_sibling_match
            ),
        }
    if kind is MySQLDwarfMapper:
        return {
            "children": stmt("SELECT cell_id FROM NODE_CHILDREN WHERE node_id = ?"),
            "cells": _kernel_plan(
                mapper, "mysql_dwarf:cell_match", _build_mysql_cell_match
            ),
            "pointer": stmt("SELECT node_id FROM CELL_CHILDREN WHERE cell_id = ?"),
        }
    return {
        "cells": stmt("SELECT * FROM DWARF_CELL WHERE cubeid = ?"),
    }


def analyze_strategy(mapper, schema_id: int, coordinates: Sequence) -> Dict[str, object]:
    """EXPLAIN ANALYZE for a :func:`stored_point_query` walk.

    Runs the point query once — per-operator timing forced on for the
    duration — and frames every access-path plan's counters around the
    run, so each step of :func:`explain_strategy` comes back annotated
    with this query's actuals (:data:`repro.query.ACTUAL_COLUMNS`).

    Returns ``{"answer": ..., "steps": {step: rows}}``; the answer is
    exactly what a plain :func:`stored_point_query` returns.  A step the
    walk never reached (say, the reconstruction scan of a warm MySQL-Min
    cache) reports zero actuals; a statement plan that has never been
    compiled only appears once the analyzed run itself creates it.
    """
    before = {
        step: snapshot_counters(plan)
        for step, plan in _strategy_plans(mapper).items()
        if plan is not None
    }
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.enabled = True  # accrue per-operator wall/CPU for this run
    try:
        answer = stored_point_query(mapper, schema_id, coordinates)
    finally:
        tracer.enabled = was_enabled
    steps = {
        step: annotate_explain(plan, before.get(step))
        for step, plan in _strategy_plans(mapper).items()
        if plan is not None
    }
    return {"answer": answer, "steps": steps}


# ----------------------------------------------------------------------
# declarative select over the stored NoSQL-DWARF cube
# ----------------------------------------------------------------------
def stored_select(
    mapper: NoSQLDwarfMapper,
    schema_id: int,
    constraints: Optional[Mapping[str, object]] = None,
    strategy: str = "walk",
    **by_name,
):
    """Run a :mod:`repro.dwarf.query`-style query against storage.

    Accepts the same constraint vocabulary (``Member``/``In``/``Range``/
    ``Each``/``All``) keyed by dimension name; unmentioned dimensions
    aggregate through their ALL cells.  Yields ``(coordinates, value)``
    pairs exactly like :func:`repro.dwarf.query.select`, but every node
    and cell is read from the column families on demand — nothing is
    rebuilt in memory.

    ``strategy`` picks the read pattern:

    * ``"walk"`` (default) — descend node by node; each level is one
      node read plus one batched cell multi-get.
    * ``"scan"`` — one pushed full scan (``schema_id = ?0``, plus
      ``key IN ?1`` when every constraint is ``All``/``Member``/``In``)
      fetches the cube's surviving cells in a single pass — zone-mapped
      columnar blocks are skipped unread — then the walk runs over the
      in-memory sibling groups.  Same answers, different I/O shape.

    Implemented for the paper's primary schema (NoSQL-DWARF), whose node
    rows make the walk a sequence of primary-key reads.

    A maintained cube (one with an epoch row) is read through its epoch
    exactly like :func:`stored_point_query`: the walk runs over every
    physical cube of the snapshot, per-coordinate values merge with the
    schema's aggregate function, and the overlay's rows stream out in
    the canonical member order the single-cube walk produces.

    Raises :class:`~repro.core.errors.QueryError` for an unknown
    ``strategy`` or constraint, :class:`MappingError` for a non-DWARF
    mapper or a missing stored node.
    """
    rows = _stored_select_impl(mapper, schema_id, constraints, strategy, **by_name)
    if not _QUERY_LOG.enabled:
        return rows
    return _logged_select(mapper, strategy, rows)


def _logged_select(mapper, strategy: str, rows):
    """Drain a :func:`stored_select` generator, recording one query-log
    entry (rows yielded, wall time) once it is exhausted."""
    t0 = wall_clock()
    count = 0
    for item in rows:
        count += 1
        yield item
    _QUERY_LOG.record(
        f"stored:{mapper.name}:select:{strategy}",
        "stored",
        wall_clock() - t0,
        rows=count,
        shards=resolve_shards(),
        epoch=mapper.cube_epoch,
    )


def _stored_select_impl(
    mapper: NoSQLDwarfMapper,
    schema_id: int,
    constraints: Optional[Mapping[str, object]] = None,
    strategy: str = "walk",
    **by_name,
):
    """The :func:`stored_select` walk (a generator; errors surface at
    first iteration, as they always have)."""
    from repro.dwarf.query import All, Constraint
    from repro.mapping.base import schema_from_rows

    if not isinstance(mapper, NoSQLDwarfMapper):
        raise MappingError("stored_select is implemented for NoSQL-DWARF storage")
    if strategy not in ("walk", "scan"):
        raise QueryError(f"unknown stored_select strategy {strategy!r}")
    spec = dict(constraints or {})
    spec.update(by_name)

    view = resolve_epoch(mapper, schema_id)
    base_id = schema_id if view is None else view.base_id
    dimension_rows = list(
        mapper.session.execute(
            "SELECT * FROM dwarf_dimension WHERE schema_id = ? ALLOW FILTERING",
            (base_id,),
        )
    )
    schema = schema_from_rows(dimension_rows)
    per_level: List[object] = [All()] * schema.n_dimensions
    for name, constraint in spec.items():
        if not isinstance(constraint, Constraint):
            raise QueryError(f"constraint for {name!r} must be a Constraint")
        per_level[schema.dimension_index(name)] = constraint

    if view is None or len(view.cube_ids) == 1:
        yield from _select_one(mapper, base_id, schema, per_level, strategy)
        return

    # Pre-merge overlay: run the same walk over base + deltas, fold the
    # per-coordinate values with the cube's aggregate function, and emit
    # in canonical member order (the order one merged walk would yield).
    aggregator = _stored_aggregator(mapper, view)
    merged: Dict[tuple, object] = {}
    for physical_id in view.cube_ids:
        for coords, value in _select_one(mapper, physical_id, schema, per_level, strategy):
            previous = merged.get(coords)
            merged[coords] = (
                value if previous is None else aggregator.merge(previous, value)
            )
    for coords in sorted(
        merged, key=lambda c: tuple(member_sort_key(member) for member in c)
    ):
        yield coords, merged[coords]


#: The cell columns a :func:`stored_select` walk reads, fetched through
#: the plans' column exit and zipped into one tuple per cell — ids are
#: unique, so sorting the tuples orders cells by id.
_CELL_COLUMNS = ("id", "key", "measure", "pointerNode", "parentNode")
_KEY = 1
_PARENT = 4


def _select_one(
    mapper: NoSQLDwarfMapper,
    schema_id: int,
    schema,
    per_level: List[object],
    strategy: str,
):
    """The :func:`stored_select` walk over one physical stored cube."""
    from repro.dwarf.query import All, Each, In, Member, Range
    from repro.mapping.base import decode_member

    session = mapper.session
    info = mapper.info(schema_id)
    n_dims = schema.n_dimensions

    if strategy == "scan":
        keyed = all(isinstance(c, (All, In, Member)) for c in per_level)
        if keyed:
            # Every level names its surviving keys outright, so the scan
            # can also push `key IN wanted` — the union of ALL markers
            # and requested members — and prune non-matching cells (or
            # whole blocks) inside the storage layer.
            wanted = set()
            for constraint in per_level:
                if isinstance(constraint, All):
                    wanted.add(ALL_KEY_TEXT)
                elif isinstance(constraint, Member):
                    wanted.add(encode_member(constraint.key))
                else:
                    wanted.update(encode_member(k) for k in constraint.keys)
            plan = _kernel_plan(
                mapper, "nosql_dwarf:cube_scan_keys", _build_nosql_cube_scan_keys
            )
            params = (schema_id, sorted(wanted))
        else:
            plan = _kernel_plan(mapper, "nosql_dwarf:cube_scan", _build_nosql_cube_scan)
            params = (schema_id,)
        by_parent: Dict[int, List[tuple]] = {}
        # One sort by id (the tuples' first, unique field) orders every
        # sibling group at once.
        for cell in sorted(zip(*plan.columns(_CELL_COLUMNS, params))):
            by_parent.setdefault(cell[_PARENT], []).append(cell)

        def cells_of(node_id: int) -> List[tuple]:
            return by_parent.get(node_id, [])

    else:
        node_statement = _prepared(
            mapper, "SELECT childrenIds FROM dwarf_node WHERE id = ?"
        )
        cells_plan = _kernel_plan(mapper, "nosql_dwarf:cells", _build_nosql_cells)

        def cells_of(node_id: int) -> List[tuple]:
            node_row = session.execute_prepared(node_statement, (node_id,)).one()
            if node_row is None:
                raise MappingError(f"stored node {node_id} missing")
            cell_ids = sorted(node_row["childrenIds"] or ())
            return list(zip(*cells_plan.columns(_CELL_COLUMNS, (cell_ids,))))

    def matching(constraint, cells: List[tuple]) -> List[tuple]:
        ordinary = [c for c in cells if c[_KEY] != ALL_KEY_TEXT]
        if isinstance(constraint, All):
            return [c for c in cells if c[_KEY] == ALL_KEY_TEXT]
        if isinstance(constraint, Member):
            wanted = encode_member(constraint.key)
            return [c for c in ordinary if c[_KEY] == wanted]
        if isinstance(constraint, In):
            wanted = {encode_member(k) for k in constraint.keys}
            return [c for c in ordinary if c[_KEY] in wanted]
        if isinstance(constraint, Range):
            inside = []
            for cell in ordinary:
                member = decode_member(cell[_KEY])
                try:
                    if constraint.lo <= member <= constraint.hi:
                        inside.append(cell)
                except TypeError:
                    continue
            return inside
        if isinstance(constraint, Each):
            return ordinary
        raise QueryError(f"unsupported constraint {constraint!r}")

    def walk(node_id: Optional[int], level: int, coords: tuple):
        if node_id is None:
            return
        constraint = per_level[level]
        grouped = constraint.grouped
        for _, key, measure, pointer, _ in matching(constraint, cells_of(node_id)):
            next_coords = coords + (decode_member(key),) if grouped else coords
            if level == n_dims - 1:
                yield next_coords, measure
            else:
                yield from walk(pointer, level + 1, next_coords)

    yield from walk(info.entry_node_id, 0, ())
