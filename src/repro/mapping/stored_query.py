"""Query primitives over *stored* DWARF cubes (paper §3, §7).

The ``entry_node_id`` column "serves as the entry point for all traversal
functions" — these functions.  A :func:`stored_point_query` answers a
point/ALL query against storage, without rebuilding the cube, in one
descent: from the entry node, one step per dimension, each matching the
coordinate's key among the current node's cells and following the
matched cell's pointer.  How a step reads storage follows from the
schema's :class:`~repro.mapping.schema_mapping.SchemaMapping`:

* ``set`` (NoSQL-DWARF) — the node row by primary key, then one
  ``MultiGet → Filter`` over its ``childrenIds``;
* ``link`` (MySQL-DWARF) — a NODE_CHILDREN prefix probe, one
  ``MultiGet → Filter``, then the CELL_CHILDREN pointer probe;
* ``parent`` with the parent column indexed (NoSQL-Min) — one
  ``IndexScan`` with the key match pushed into storage: the query
  workload the paper keeps those expensive secondary indexes for;
* ``parent`` without (MySQL-Min) — "DWARF Node reconstruction is
  required": one scan of the cube's cells, grouped by parent in memory
  and cached until the table next changes.

Statement steps go through the session's plan cache as prepared text;
the cell matches are *direct* kernel plans cached in the same
:class:`~repro.query.PlanCache` under ``stored:`` labels and guarded
against DDL like session plans.  One step table per schema feeds the
descent, :func:`explain_strategy` and :func:`analyze_strategy`.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.errors import QueryError
from repro.core.tuples import member_sort_key
from repro.dwarf.cell import ALL
from repro.mapping.base import (
    ALL_KEY_TEXT,
    CubeMapper,
    Kernel,
    MappingError,
    build_cube_scan,
    cached_statement,
    decode_member,
    encode_member,
    guarded_table,
    kernel_plan,
    key_match,
    scan_kernel,
)
from repro.mapping.incremental import resolve_epoch
from repro.mapping.schema_mapping import LINK, PARENT, SET, SchemaMapping
from repro.query import (
    Filter,
    IndexScan,
    MultiGet,
    Plan,
    PushedPredicate,
    annotate_explain,
    counter_totals,
    snapshot_counters,
)
from repro.telemetry import get_query_log, get_registry, get_tracer, wall_clock

_M_STORED_QUERIES = get_registry().counter(
    "mapper_stored_queries_total",
    "stored point queries answered, by storage schema",
    labels=("schema",),
)

_QUERY_LOG = get_query_log()


# ----------------------------------------------------------------------
# kernel plans, built from the declaration
# ----------------------------------------------------------------------
def _build_fetch(mapper, match: bool = False) -> Plan:
    """One node's candidate cells, block-batched by primary key
    (``MultiGet``); with ``match``, the per-level key match on top
    (``MultiGet → Filter``)."""
    cells = mapper.mapping.cells
    table, guards, probe = guarded_table(mapper, cells.name)
    root = MultiGet(
        table, lambda params: params[0], cells.name, cells.column("cell_id"),
        cache_probe=probe,
    )
    if match:
        root = Filter(root, key_match(cells))
    return Plan(root, guards=guards)


def _build_sibling_match(mapper) -> Plan:
    """The per-level descent through the parent-column secondary index:
    an ``IndexScan`` with the key match pushed into the storage layer (no
    Filter operator remains — fetched siblings arrive pre-matched)."""
    cells = mapper.mapping.cells
    table, guards, probe = guarded_table(mapper, cells.name)
    scan = IndexScan(
        table, cells.column("parent_node_id"), lambda params: params[0], cells.name,
        cache_probe=probe, pushed=PushedPredicate((key_match(cells),)),
    )
    return Plan(scan, guards=guards)


# ----------------------------------------------------------------------
# the per-schema step table
# ----------------------------------------------------------------------
_cell_match = partial(_build_fetch, match=True)


def _walk_kind(mapping: SchemaMapping) -> str:
    """``set`` / ``link`` / ``index`` / ``scan``: how a descent step reads."""
    if mapping.relation != PARENT:
        return mapping.relation
    cells = mapping.cells
    return "index" if cells.column("parent_node_id") in cells.indexes else "scan"


@lru_cache(maxsize=None)
def _steps(mapping: SchemaMapping) -> Dict[str, object]:
    """The descent's access paths, in order: step name → statement text
    (run through the session) or :class:`Kernel` (a direct plan)."""
    kind, label, cells = _walk_kind(mapping), mapping.label, mapping.cells
    if kind == SET:
        nodes = mapping.nodes
        return {
            "node": f"SELECT {nodes.column('children_cell_ids')} FROM {nodes.name} "
                    f"WHERE {nodes.column('node_id')} = ?",
            "cells": Kernel(f"{label}:cell_match", _cell_match),
        }
    if kind == LINK:
        children = mapping.link("parent_node_id")
        pointers = mapping.link("pointer_node_id")
        return {
            "children": f"SELECT {children.column('cell_id')} FROM {children.name} "
                        f"WHERE {children.column('parent_node_id')} = ?",
            "cells": Kernel(f"{label}:cell_match", _cell_match),
            "pointer": f"SELECT {pointers.column('pointer_node_id')} FROM {pointers.name} "
                       f"WHERE {pointers.column('cell_id')} = ?",
        }
    cube = f"{cells.column('schema_id')} = ?{mapping.backend.filtering}"
    if kind == "index":
        return {
            "entry": f"SELECT * FROM {cells.name} WHERE "
                     f"{cells.column('is_root_cell')} = true AND {cube}",
            "siblings": Kernel(f"{label}:sibling_match", _build_sibling_match),
        }
    return {"cells": f"SELECT * FROM {cells.name} WHERE {cube}"}


@lru_cache(maxsize=None)
def _select_kernels(mapping: SchemaMapping) -> Dict[str, Kernel]:
    """The :func:`stored_select` / :func:`stored_cell_count` plans (of a
    schema with node rows)."""
    label = mapping.label
    return {
        "cube_scan": scan_kernel(mapping, mapping.cells),
        "cube_count": Kernel(f"{label}:cube_count", partial(build_cube_scan, count=True)),
        "cube_scan_keys": Kernel(
            f"{label}:cube_scan_keys", partial(build_cube_scan, keyed=True)
        ),
        "cells": Kernel(f"{label}:cells", _build_fetch),
    }


def _mapping_of(mapper) -> SchemaMapping:
    if not isinstance(mapper, CubeMapper):
        raise MappingError(f"no stored-query strategy for {mapper!r}")
    return mapper.mapping


# ----------------------------------------------------------------------
# the descent
# ----------------------------------------------------------------------
# Each opener takes the registry's entry node (None when the schema keeps
# none) and returns the cube's entry node with the per-level step
# ``step(node_id, key) -> (next_node_id, measure) | None``; an entry of
# None means the cube holds no cells.
def _open_set(mapper, schema_id: int, entry: Optional[int]):
    mapping, session = mapper.mapping, mapper.session
    steps = _steps(mapping)
    node_statement = cached_statement(mapper, steps["node"])
    cell_match = kernel_plan(mapper, steps["cells"])
    children = mapping.nodes.column("children_cell_ids")
    wanted = (mapping.cells.column("pointer_node_id"), mapping.cells.column("measure"))

    def step(node_id: int, key: str):
        node_row = session.execute_prepared(node_statement, (node_id,)).one()
        if node_row is None:
            raise MappingError(f"stored node {node_id} missing")
        # One batched multi-get for all candidate cells of this node —
        # grouped by SSTable block — key-matched by the plan's Filter.
        return _first(cell_match.columns(wanted, (sorted(node_row[children] or ()), key)))

    return entry, step


def _open_link(mapper, schema_id: int, entry: Optional[int]):
    mapping, session = mapper.mapping, mapper.session
    steps = _steps(mapping)
    children_statement = cached_statement(mapper, steps["children"])
    pointer_statement = cached_statement(mapper, steps["pointer"])
    cell_match = kernel_plan(mapper, steps["cells"])
    member = mapping.link("parent_node_id").column("cell_id")
    target = mapping.link("pointer_node_id").column("pointer_node_id")
    cells = mapping.cells
    wanted = (cells.column("cell_id"), cells.column("measure"), cells.column("is_leaf"))

    def step(node_id: int, key: str):
        # Clustered-prefix probe for the link rows, then every candidate
        # cell in one batched MultiGet, key-matched by the Filter.
        links = session.execute_prepared(children_statement, (node_id,))
        ids, measures, leaves = cell_match.columns(
            wanted, (sorted(link[member] for link in links), key)
        )
        if not ids:
            return None
        if leaves[0]:
            return None, measures[0]
        pointer = session.execute_prepared(pointer_statement, (ids[0],)).one()
        return (pointer[target] if pointer else None), measures[0]

    return entry, step


def _open_index(mapper, schema_id: int, entry: Optional[int]):
    mapping = mapper.mapping
    steps, cells = _steps(mapping), mapping.cells
    entry = mapper._entry_cache.get(schema_id)
    if entry is None:
        # No entry_node_id in the registry: one filtered scan, then cached.
        root = mapper.session.execute_prepared(
            cached_statement(mapper, steps["entry"]), (schema_id,)
        ).one()
        if root is None:
            return None, None
        entry = mapper._entry_cache[schema_id] = root[cells.column("parent_node_id")]
    siblings = kernel_plan(mapper, steps["siblings"])
    wanted = (cells.column("pointer_node_id"), cells.column("measure"))

    def step(node_id: int, key: str):
        return _first(siblings.columns(wanted, (node_id, key)))

    return entry, step


def _open_scan(mapper, schema_id: int, entry: Optional[int]):
    mapping = mapper.mapping
    cells = mapping.cells
    table = mapper.table(cells.name)
    # The reconstruction is cached against the table's mutation counter,
    # so the paper's "DWARF Node reconstruction is required" cost is paid
    # once per table version; the scan's cube condition is pushed down.
    cached = mapper._reconstruction_cache.get(schema_id)
    if cached is not None and cached[0] == table.version:
        _, by_parent, entry = cached
    else:
        rows = list(mapper.session.execute_prepared(
            cached_statement(mapper, _steps(mapping)["cells"]), (schema_id,)
        ))
        if not rows:
            return None, None
        parent, root = cells.column("parent_node_id"), cells.column("is_root_cell")
        by_parent: Dict[int, List[dict]] = {}
        entry = None
        for row in rows:
            by_parent.setdefault(row[parent], []).append(row)
            if row[root]:
                entry = row[parent]
        if entry is None:
            raise MappingError("stored cube has no root cells")
        mapper._reconstruction_cache[schema_id] = (table.version, by_parent, entry)
    key_column = cells.column("key_text")
    pointer, measure = cells.column("pointer_node_id"), cells.column("measure")

    def step(node_id: int, key: str):
        for row in by_parent.get(node_id, ()):
            if row[key_column] == key:
                return row[pointer], row[measure]
        return None

    return entry, step


def _first(columns):
    """``(pointer, measure)`` of the first matched cell, or None."""
    pointers, measures = columns
    return (pointers[0], measures[0]) if pointers else None


_OPENERS = {SET: _open_set, LINK: _open_link, "index": _open_index, "scan": _open_scan}


def _descend(mapper, schema_id: int, keys: List[str]):
    """The point-query descent over one physical stored cube."""
    entry = mapper.info(schema_id).entry_node_id  # also validates the id
    node_id, step = _OPENERS[_walk_kind(mapper.mapping)](mapper, schema_id, entry)
    measure = None
    for key in keys:
        if node_id is None:
            return None
        found = step(node_id, key)
        if found is None:
            return None
        node_id, measure = found
    return measure


def stored_point_query(mapper, schema_id: int, coordinates: Sequence):
    """Answer a point query against the stored cube ``schema_id``.

    ``coordinates`` holds one entry per dimension — a member value or
    :data:`~repro.dwarf.ALL`.  Returns the aggregate (or ``None`` when no
    fact matches), identical to ``mapper.load(schema_id).value(...)`` —
    including its :class:`~repro.core.errors.QueryError` for a vector of
    the wrong length.

    When ``schema_id`` names a *maintained* cube (one with an epoch row,
    see :mod:`repro.mapping.incremental`), the walk reads through the
    epoch: the same descent runs once per physical cube of the snapshot
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
    _log(mapper, "point_query", t0, 0 if answer is None else 1, plans, before)
    return answer


def _log(mapper, what: str, t0: float, rows: int, plans=(), before=()) -> None:
    """One query-log record for a stored query, with the counter deltas
    of ``plans`` since the ``before`` snapshots."""
    deltas = dict.fromkeys(("cache_hits", "blocks_skipped", "rows_pruned"), 0)
    for plan, start in zip(plans, before):
        now = counter_totals(plan)
        for name in deltas:
            deltas[name] += now[name] - start[name]
    _QUERY_LOG.record(
        f"stored:{mapper.name}:{what}", "stored", wall_clock() - t0, rows=rows,
        epoch=mapper.cube_epoch, **deltas,
    )


def _point_query(mapper, schema_id: int, coordinates: Sequence):
    """The :func:`stored_point_query` walk, shared by the plain, logged
    and analyzed entry points."""
    _mapping_of(mapper)
    view = resolve_epoch(mapper, schema_id)
    cube_ids = (schema_id,) if view is None else view.cube_ids
    schema = mapper.stored_schema(cube_ids[0])
    if len(coordinates) != schema.n_dimensions:
        raise QueryError(
            f"expected {schema.n_dimensions} coordinates for schema "
            f"{schema.name!r}, got {len(coordinates)}"
        )
    keys = [ALL_KEY_TEXT if c is ALL else encode_member(c) for c in coordinates]
    _M_STORED_QUERIES.labels(mapper.name).inc()
    with get_tracer().span("stored.point_query", schema=mapper.name):
        answers = [
            answer
            for physical_id in cube_ids
            for answer in (_descend(mapper, physical_id, keys),)
            if answer is not None
        ]
    return reduce(schema.aggregator.merge, answers) if answers else None


# ----------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE of the descent
# ----------------------------------------------------------------------
def explain_strategy(mapper, schema_id: Optional[int] = None) -> Dict[str, List[dict]]:
    """EXPLAIN every access path the schema's stored queries use.

    Returns an ordered mapping of step → plan rows in the shared
    :mod:`repro.query` EXPLAIN vocabulary (``step``/``node``/``table``/
    ``key``/``detail``): the point-query descent's steps, then (schemas
    with node rows) the :func:`stored_select` scan and the
    :func:`stored_cell_count` aggregate.  Plans are shape-level, so
    ``schema_id`` is accepted for symmetry with the query functions but
    not required.
    """
    mapping = _mapping_of(mapper)
    steps = dict(_steps(mapping))
    if _walk_kind(mapping) == SET:
        select = _select_kernels(mapping)
        steps.update(cube_scan=select["cube_scan"], cube_count=select["cube_count"])
    return {
        name: list(mapper.session.execute("EXPLAIN " + step))
        if isinstance(step, str) else kernel_plan(mapper, step).explain()
        for name, step in steps.items()
    }


def _strategy_plans(mapper) -> Dict[str, Optional[Plan]]:
    """Descent step → live plan.

    Kernel plans are fetched (building on first use) through
    :func:`~repro.mapping.base.kernel_plan`; statement plans are
    *peeked* from the session's cache under their ``(scope, text)`` key
    — a statement that has never executed maps to ``None`` rather than
    being compiled here, so reading the plans never changes what a
    later execution would do.
    """
    plans: Dict[str, Optional[Plan]] = {}
    for name, step in _steps(_mapping_of(mapper)).items():
        if isinstance(step, str):
            plan = mapper.session.plan_cache.peek((mapper.namespace, step))
            plans[name] = plan if isinstance(plan, Plan) else None
        else:
            plans[name] = kernel_plan(mapper, step)
    return plans


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
# count and declarative select over a stored cube with node rows
# ----------------------------------------------------------------------
def _select_plans(mapper, what: str) -> Dict[str, Kernel]:
    mapping = _mapping_of(mapper)
    if _walk_kind(mapping) != SET:
        raise MappingError(f"{what} is implemented for NoSQL-DWARF storage")
    return _select_kernels(mapping)


def stored_cell_count(mapper, schema_id: int) -> int:
    """How many cells the stored cube ``schema_id`` holds, counted in
    storage (NoSQL-DWARF only).

    Equals ``len(list(stored_select(mapper, schema_id, strategy="scan",
    ...)))`` over every cell rather than a constrained slice — the
    benchmark-grade aggregate, answered by ``Aggregate(FullScan)``.
    """
    kernel = _select_plans(mapper, "stored_cell_count")["cube_count"]
    t0 = wall_clock() if _QUERY_LOG.enabled else 0.0
    view = resolve_epoch(mapper, schema_id)
    cube_ids = (schema_id,) if view is None else view.cube_ids
    for physical_id in cube_ids:
        mapper.info(physical_id)  # validate
    plan = kernel_plan(mapper, kernel)
    before = counter_totals(plan) if _QUERY_LOG.enabled else None
    with get_tracer().span("stored.cell_count", schema=mapper.name):
        total = sum(plan.run((physical_id,))[0]["count"] for physical_id in cube_ids)
    if _QUERY_LOG.enabled:
        _log(mapper, "cell_count", t0, len(cube_ids), (plan,), (before,))
    return total


def stored_select(
    mapper,
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
    ``strategy`` or constraint, :class:`MappingError` for a schema
    without node rows or a missing stored node.
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
    _log(mapper, f"select:{strategy}", t0, count)


def _stored_select_impl(mapper, schema_id: int, constraints, strategy: str, **by_name):
    """The :func:`stored_select` walk (a generator; errors surface at
    first iteration, as they always have)."""
    from repro.dwarf.query import All, Constraint

    kernels = _select_plans(mapper, "stored_select")
    if strategy not in ("walk", "scan"):
        raise QueryError(f"unknown stored_select strategy {strategy!r}")
    spec = dict(constraints or {})
    spec.update(by_name)

    view = resolve_epoch(mapper, schema_id)
    base_id = schema_id if view is None else view.base_id
    schema = mapper.stored_schema(base_id)
    per_level: List[object] = [All()] * schema.n_dimensions
    for name, constraint in spec.items():
        if not isinstance(constraint, Constraint):
            raise QueryError(f"constraint for {name!r} must be a Constraint")
        per_level[schema.dimension_index(name)] = constraint

    if view is None or len(view.cube_ids) == 1:
        yield from _select_one(mapper, kernels, base_id, per_level, strategy)
        return

    # Pre-merge overlay: run the same walk over base + deltas, fold the
    # per-coordinate values with the cube's aggregate function, and emit
    # in canonical member order (the order one merged walk would yield).
    merge = schema.aggregator.merge
    merged: Dict[tuple, object] = {}
    for physical_id in view.cube_ids:
        for coords, value in _select_one(mapper, kernels, physical_id, per_level, strategy):
            previous = merged.get(coords)
            merged[coords] = value if previous is None else merge(previous, value)
    for coords in sorted(
        merged, key=lambda c: tuple(member_sort_key(member) for member in c)
    ):
        yield coords, merged[coords]


#: What a :func:`stored_select` walk reads of each cell, by role, fetched
#: through the plans' column exit and zipped into one tuple per cell —
#: ids are unique, so sorting the tuples orders cells by id.
_CELL_ROLES = ("cell_id", "key_text", "measure", "pointer_node_id", "parent_node_id")
_KEY = 1
_PARENT = 4


def _admitted_keys(constraint):
    """The encoded keys an ``All``/``Member``/``In`` constraint admits
    (an encoded member never equals the ALL marker); None otherwise."""
    from repro.dwarf.query import All, In, Member

    if isinstance(constraint, All):
        return {ALL_KEY_TEXT}
    if isinstance(constraint, Member):
        return {encode_member(constraint.key)}
    if isinstance(constraint, In):
        return {encode_member(k) for k in constraint.keys}
    return None


def _select_one(mapper, kernels, schema_id: int, per_level: List[object], strategy: str):
    """The :func:`stored_select` walk over one physical stored cube."""
    from repro.dwarf.query import Each, Range

    mapping, session = mapper.mapping, mapper.session
    entry_node_id = mapper.info(schema_id).entry_node_id
    n_dims = len(per_level)
    columns = tuple(mapping.cells.column(role) for role in _CELL_ROLES)

    # The encoded keys each All/Member/In level admits (None: Each/Range).
    admitted = [_admitted_keys(constraint) for constraint in per_level]
    if strategy == "scan":
        if all(keys is not None for keys in admitted):
            # Every level names its surviving keys outright, so the scan
            # can also push `key IN wanted` — the union of ALL markers
            # and requested members — and prune non-matching cells (or
            # whole blocks) inside the storage layer.
            plan = kernel_plan(mapper, kernels["cube_scan_keys"])
            params = (schema_id, sorted(set().union(*admitted)))
        else:
            plan = kernel_plan(mapper, kernels["cube_scan"])
            params = (schema_id,)
        by_parent: Dict[int, List[tuple]] = {}
        # One sort by id (the tuples' first, unique field) orders every
        # sibling group at once.
        for cell in sorted(zip(*plan.columns(columns, params))):
            by_parent.setdefault(cell[_PARENT], []).append(cell)

        def cells_of(node_id: int) -> List[tuple]:
            return by_parent.get(node_id, [])

    else:
        node_statement = cached_statement(mapper, _steps(mapping)["node"])
        children = mapping.nodes.column("children_cell_ids")
        cells_plan = kernel_plan(mapper, kernels["cells"])

        def cells_of(node_id: int) -> List[tuple]:
            node_row = session.execute_prepared(node_statement, (node_id,)).one()
            if node_row is None:
                raise MappingError(f"stored node {node_id} missing")
            cell_ids = sorted(node_row[children] or ())
            return list(zip(*cells_plan.columns(columns, (cell_ids,))))

    def matching(level: int, cells: List[tuple]) -> List[tuple]:
        keys, constraint = admitted[level], per_level[level]
        if keys is not None:
            return [c for c in cells if c[_KEY] in keys]
        ordinary = [c for c in cells if c[_KEY] != ALL_KEY_TEXT]
        if isinstance(constraint, Each):
            return ordinary
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
        raise QueryError(f"unsupported constraint {constraint!r}")

    def walk(node_id: Optional[int], level: int, coords: tuple):
        if node_id is None:
            return
        grouped = per_level[level].grouped
        for _, key, measure, pointer, _ in matching(level, cells_of(node_id)):
            next_coords = coords + (decode_member(key),) if grouped else coords
            if level == n_dims - 1:
                yield next_coords, measure
            else:
                yield from walk(pointer, level + 1, next_coords)

    yield from walk(entry_node_id, 0, ())
