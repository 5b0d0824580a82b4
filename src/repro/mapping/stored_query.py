"""Query primitives over *stored* DWARF cubes (paper §3, §7).

The ``entry_node_id`` column "serves as the entry point for all traversal
functions" — these functions.  Every stored query is one recursive walk
from the entry node, one level per dimension: read the node's cells,
keep those the level admits, follow each kept cell's pointer.
:func:`stored_point_query` is the walk with one admitted key per level,
:func:`stored_select` the walk with one constraint per level.  Only how
a level reads a node's cells differs per schema, and it follows from
the schema's :class:`~repro.mapping.schema_mapping.SchemaMapping`:

* ``set`` (NoSQL-DWARF) — the node row by primary key, then ``MultiGet``;
* ``link`` (MySQL-DWARF) — a NODE_CHILDREN prefix probe, ``MultiGet``,
  then a CELL_CHILDREN pointer probe per kept non-leaf cell;
* ``index`` (NoSQL-Min) — an ``IndexScan`` on the indexed parent column:
  the query workload the paper keeps those secondary indexes for;
* ``scan`` (MySQL-Min) — "DWARF Node reconstruction is required": one
  pushed cube scan, grouped by parent, cached per table version.

A level that names its keys (``All``/``Member``/``In``, so every
point-query level) reads through the *match* plan, which pushes ``key
IN ?1`` into storage; an ``Each``/``Range`` level reads every cell and a
Python test keeps what it admits.  Kernel plans are cached in the
session's :class:`~repro.query.PlanCache` under ``stored:`` labels,
guarded against DDL; one step table per schema feeds
:func:`explain_strategy` and :func:`analyze_strategy`.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.errors import QueryError
from repro.core.tuples import member_sort_key
from repro.dwarf.cell import ALL
from repro.dwarf.query import All, Constraint, Each, In, Member, Range
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
from repro.query import Filter, IndexScan, MultiGet, Plan, PushedPredicate
from repro.query import annotate_explain, counter_totals, snapshot_counters
from repro.telemetry import get_query_log, get_registry, get_tracer, wall_clock

_M_STORED_QUERIES = get_registry().counter(
    "mapper_stored_queries_total",
    "stored point queries answered, by storage schema",
    labels=("schema",),
)

_QUERY_LOG = get_query_log()


# ----------------------------------------------------------------------
# kernel plans and the per-schema step table, built from the declaration
# ----------------------------------------------------------------------
def _build_read(mapper, by_parent: bool, match: bool) -> Plan:
    """One node's cells by primary key (``MultiGet`` over ``?0``, the
    cell ids) or through the parent-column index (``IndexScan``, ``?0``
    the node id); with ``match`` also ``key IN ?1``, pushed into the
    index scan's storage read."""
    cells = mapper.mapping.cells
    table, guards, probe = guarded_table(mapper, cells.name)
    keyed, first = key_match(cells, "IN"), (lambda params: params[0])
    if by_parent:
        pushed = PushedPredicate((keyed,)) if match else None
        root = IndexScan(table, cells.column("parent_node_id"), first, cells.name,
                         cache_probe=probe, pushed=pushed)
    else:
        root = MultiGet(table, first, cells.name, cells.column("cell_id"), cache_probe=probe)
        root = Filter(root, keyed) if match else root
    return Plan(root, guards=guards)


@lru_cache(maxsize=None)
def _walk_kind(mapping: SchemaMapping) -> str:
    """``set`` / ``link`` / ``index`` / ``scan``: how a level reads."""
    if mapping.relation != PARENT:
        return mapping.relation
    cells = mapping.cells
    return "index" if cells.column("parent_node_id") in cells.indexes else "scan"


@lru_cache(maxsize=None)
def _read(mapping: SchemaMapping, kind: str, match: bool) -> Kernel:
    """The kernel a ``kind`` level reads a node's cells through; with
    ``match`` the one that pushes the level's keys into storage."""
    if kind == "scan":
        if match:
            return Kernel(f"{mapping.label}:cube_scan_keys", partial(build_cube_scan, keyed=True))
        return scan_kernel(mapping, mapping.cells)
    name = "sibling" if kind == "index" else "cell"
    return Kernel(
        f"{mapping.label}:{name}{'_match' if match else 's'}",
        partial(_build_read, by_parent=kind == "index", match=match),
    )


@lru_cache(maxsize=None)
def _steps(mapping: SchemaMapping) -> Dict[str, object]:
    """Every access path the schema's stored queries use, in order: the
    walk's steps, then the cube scan and count.  Step name → statement
    text (run through the session) or :class:`Kernel` (a direct plan)."""
    kind, cells = _walk_kind(mapping), mapping.cells
    match = _read(mapping, kind, True)
    if kind == SET:
        nodes = mapping.nodes
        steps = {
            "node": f"SELECT {nodes.column('children_cell_ids')} FROM {nodes.name} "
                    f"WHERE {nodes.column('node_id')} = ?",
            "cells": match,
        }
    elif kind == LINK:
        children = mapping.link("parent_node_id")
        pointers = mapping.link("pointer_node_id")
        steps = {
            "children": f"SELECT {children.column('cell_id')} FROM {children.name} "
                        f"WHERE {children.column('parent_node_id')} = ?",
            "cells": match,
            "pointer": f"SELECT {pointers.column('pointer_node_id')} FROM {pointers.name} "
                       f"WHERE {pointers.column('cell_id')} = ?",
        }
    elif kind == "index":
        steps = {
            "entry": f"SELECT * FROM {cells.name} WHERE {cells.column('is_root_cell')} = true "
                     f"AND {cells.column('schema_id')} = ?{mapping.backend.filtering}",
            "siblings": match,
        }
    else:
        steps = {"cells": _read(mapping, kind, False)}
    steps["cube_scan"] = _read(mapping, "scan", False)
    steps["cube_count"] = Kernel(f"{mapping.label}:cube_count",
                                 partial(build_cube_scan, count=True))
    return steps


def _mapping_of(mapper) -> SchemaMapping:
    if not isinstance(mapper, CubeMapper):
        raise MappingError(f"no stored-query strategy for {mapper!r}")
    return mapper.mapping


# ----------------------------------------------------------------------
# the per-schema cell sources
# ----------------------------------------------------------------------
#: One walk level, ``(keys, keep, grouped)``: the encoded keys it admits,
#: pushed into the read (None: read every cell, ``keep(key)`` decides),
#: and whether it adds a coordinate.  A tuple: point queries build many.
Level = Tuple[Optional[Tuple[str, ...]], Optional[Callable[[str], bool]], bool]


#: What a walk reads of each cell, by role: every source yields one
#: ``(cell_id, key, measure, pointer)`` tuple per cell, in id order.
_CELL = ("cell_id", "key_text", "measure", "pointer_node_id")


# Each opener takes the stored cube's id and the walk's levels and
# returns the entry node (None when the cube holds no cells) with the
# source ``cells(node_id, keys, keep)`` of the node's kept cells.
def _reader(mapper, kind: str, levels: Sequence[Level], last_role: str):
    """``read(param, keys, keep)``: one node's kept cells, through the
    match plan if the level names its keys, else the unmatched plan and
    ``keep``.  A plan is fetched only if a level uses it."""
    mapping = mapper.mapping
    names = _names(mapping, last_role)
    plans = {
        match: kernel_plan(mapper, _read(mapping, kind, match))
        for match in {keys is not None for keys, _, _ in levels}
    }

    def read(param, keys, keep):
        if keys is not None:
            return zip(*plans[True].columns(names, (param, keys)))
        return [cell for cell in zip(*plans[False].columns(names, (param,))) if keep(cell[1])]

    return read


@lru_cache(maxsize=None)
def _names(mapping: SchemaMapping, last_role: str) -> Tuple[str, ...]:
    """The cell columns a by-node read fetches, in walk-tuple order."""
    return tuple(mapping.cells.column(role) for role in _CELL[:3] + (last_role,))


def _open_set(mapper, schema_id: int, levels: Sequence[Level]):
    mapping, session = mapper.mapping, mapper.session
    entry = mapper.info(schema_id).entry_node_id  # also validates the id
    node_statement = cached_statement(mapper, _steps(mapping)["node"])
    children = mapping.nodes.column("children_cell_ids")
    read = _reader(mapper, SET, levels, "pointer_node_id")

    def cells(node_id: int, keys, keep):
        node_row = session.execute_prepared(node_statement, (node_id,)).one()
        if node_row is None:
            raise MappingError(f"stored node {node_id} missing")
        return read(sorted(node_row[children] or ()), keys, keep)

    return entry, cells


def _open_link(mapper, schema_id: int, levels: Sequence[Level]):
    mapping, session = mapper.mapping, mapper.session
    entry = mapper.info(schema_id).entry_node_id
    steps = _steps(mapping)
    children_statement = cached_statement(mapper, steps["children"])
    pointer_statement = cached_statement(mapper, steps["pointer"])
    member = mapping.link("parent_node_id").column("cell_id")
    target = mapping.link("pointer_node_id").column("pointer_node_id")
    read = _reader(mapper, LINK, levels, "is_leaf")

    def pointer(cell_id: int):
        row = session.execute_prepared(pointer_statement, (cell_id,)).one()
        return row[target] if row else None

    def cells(node_id: int, keys, keep):
        links = session.execute_prepared(children_statement, (node_id,))
        ids = sorted(link[member] for link in links)
        return [
            (cell_id, key, measure, None if leaf else pointer(cell_id))
            for cell_id, key, measure, leaf in read(ids, keys, keep)
        ]

    return entry, cells


def _open_index(mapper, schema_id: int, levels: Sequence[Level]):
    mapper.info(schema_id)  # validates the id
    entry = mapper._entry_cache.get(schema_id)
    if entry is None:
        # No entry_node_id in the registry: one filtered scan, then cached.
        root = mapper.session.execute_prepared(
            cached_statement(mapper, _steps(mapper.mapping)["entry"]), (schema_id,)
        ).one()
        if root is None:
            return None, None
        cells = mapper.mapping.cells
        entry = mapper._entry_cache[schema_id] = root[cells.column("parent_node_id")]
    return entry, _reader(mapper, "index", levels, "pointer_node_id")


def _open_scan(mapper, schema_id: int, levels: Sequence[Level], memo: bool = False):
    """One pushed cube scan grouped by parent, each group keyed by cell key
    and in id order.  With ``memo`` (MySQL-Min's walk) the whole cube is
    scanned once per table version — the paper's "DWARF Node
    reconstruction"; without, each call scans, pushing ``key IN`` the
    levels' keys when every level names them."""
    mapping, cells = mapper.mapping, mapper.mapping.cells
    entry = mapper.info(schema_id).entry_node_id  # also validates the id
    version = mapper.table(cells.name).version if memo else None
    cached = mapper._reconstruction_cache.get(schema_id) if memo else None
    if cached is not None and cached[0] == version:
        _, entry, by_parent = cached
    else:
        union = None
        if not memo and all(keys is not None for keys, _, _ in levels):
            union = frozenset().union(*(keys for keys, _, _ in levels))
        derive = mapping.registry.column("entry_node_id") is None  # root cells' parent
        roles = _CELL + ("parent_node_id",) + (("is_root_cell",) if derive else ())
        scanned = kernel_plan(mapper, _read(mapping, "scan", union is not None)).columns(
            [cells.column(role) for role in roles],
            (schema_id,) if union is None else (schema_id, union),
        )
        by_parent: Dict[int, Dict[str, tuple]] = {}
        parent = group = object()
        for cell in sorted(zip(*scanned)):  # by id, the tuples' unique first field
            if cell[4] != parent:  # a node's cells mostly have consecutive ids
                parent = cell[4]
                group = by_parent.setdefault(parent, {})
            group[cell[1]] = cell
        if derive and by_parent:
            # Every cell of a node shares its root flag: test one per node.
            entry = next((node for node, members in by_parent.items()
                          if next(iter(members.values()))[5]), None)
            if entry is None and union is None:
                raise MappingError("stored cube has no root cells")
        if memo:
            mapper._reconstruction_cache[schema_id] = (version, entry, by_parent)

    def cells_of(node_id: int, keys, keep):
        group = by_parent.get(node_id)
        if group is None:
            return ()
        if keys is not None:
            found = [group[key] for key in keys if key in group]
            return sorted(found) if len(found) > 1 else found
        return [cell for cell in group.values() if keep(cell[1])]

    return entry, cells_of


_OPENERS = {SET: _open_set, LINK: _open_link, "index": _open_index,
            "scan": partial(_open_scan, memo=True)}


# ----------------------------------------------------------------------
# the walk
# ----------------------------------------------------------------------
def _walk(mapper, opener, schema_id: int, levels: Sequence[Level]) -> List[tuple]:
    """``(coordinates, measure)`` of every cell the last level keeps, in
    the canonical member order, over one physical stored cube."""
    entry, cells = opener(mapper, schema_id, levels)
    last = len(levels) - 1
    found: List[tuple] = []

    # Plain recursion into a list, not a generator per level: a point
    # query takes one answer, and closing a suspended chain of generators
    # costs it more than stopping early saves.
    def walk(node_id: int, depth: int, coords: tuple) -> None:
        keys, keep, grouped = levels[depth]
        for cell in cells(node_id, keys, keep):
            here = coords + (decode_member(cell[1]),) if grouped else coords
            if depth == last:
                found.append((here, cell[2]))
            elif cell[3] is None:
                raise MappingError(f"{mapper.name} cube {schema_id}: cell {cell[0]} "
                                   f"on level {depth} points at no node")
            else:
                walk(cell[3], depth + 1, here)

    if entry is not None:
        walk(entry, 0, ())
    return found


def _cube_ids(mapper, schema_id: int) -> Tuple[int, ...]:
    """The physical cubes behind ``schema_id``, from one epoch read."""
    view = resolve_epoch(mapper, schema_id)
    return (schema_id,) if view is None else view.cube_ids


def _answers(mapper, opener, cube_ids: Tuple[int, ...], levels, merge):
    """The walk over one physical cube, or the overlay merge of the walks
    over base and deltas: values fold per coordinate with the aggregate
    function, in the member order one merged walk would yield."""
    if len(cube_ids) == 1:
        return iter(_walk(mapper, opener, cube_ids[0], levels))
    merged: Dict[tuple, object] = {}
    for physical_id in cube_ids:
        for coords, value in _walk(mapper, opener, physical_id, levels):
            previous = merged.get(coords)
            merged[coords] = value if previous is None else merge(previous, value)
    order = sorted(merged, key=lambda c: tuple(member_sort_key(member) for member in c))
    return ((coords, merged[coords]) for coords in order)


def stored_point_query(mapper, schema_id: int, coordinates: Sequence):
    """Answer a point query against the stored cube ``schema_id``.

    ``coordinates`` holds one member value or :data:`~repro.dwarf.ALL`
    per dimension.  Returns the aggregate (``None`` when no fact
    matches), identical to ``mapper.load(schema_id).value(...)`` — also
    its :class:`~repro.core.errors.QueryError` for a vector of the wrong
    length, and :class:`MappingError` where a cell on the way points at
    no node: a lost pointer is never served as "no such fact".

    A *maintained* cube (one with an epoch row, see
    :mod:`repro.mapping.incremental`) is read through its epoch, resolved
    in one primary-key read: the walk runs over the base and any unmerged
    deltas, and the answers combine with the schema's aggregate
    function — the pre-merge overlay or the post-merge base, never a
    torn mix.
    """
    if not _QUERY_LOG.enabled:
        return _point_query(mapper, schema_id, coordinates)
    # Frame the plan counters: the record carries this query's actuals.
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
    """The :func:`stored_point_query` walk (plain, logged and analyzed)."""
    opener = _OPENERS[_walk_kind(_mapping_of(mapper))]
    cube_ids = _cube_ids(mapper, schema_id)
    schema = mapper.stored_schema(cube_ids[0])
    if len(coordinates) != schema.n_dimensions:
        raise QueryError(f"expected {schema.n_dimensions} coordinates for schema "
                         f"{schema.name!r}, got {len(coordinates)}")
    levels = [((ALL_KEY_TEXT if c is ALL else encode_member(c),), None, False)
              for c in coordinates]
    _M_STORED_QUERIES.labels(mapper.name).inc()
    with get_tracer().span("stored.point_query", schema=mapper.name):
        for _, measure in _answers(mapper, opener, cube_ids, levels, schema.aggregator.merge):
            return measure
    return None


# ----------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE of the walk
# ----------------------------------------------------------------------
def explain_strategy(mapper, schema_id: Optional[int] = None) -> Dict[str, List[dict]]:
    """EXPLAIN every access path the schema's stored queries use: an
    ordered mapping of step → plan rows in the shared :mod:`repro.query`
    vocabulary (``step``/``node``/``table``/``key``/``detail``) — the
    walk's steps (with the key-matched cell read), then the cube scan
    and count.  Plans are shape-level; ``schema_id`` is accepted for
    symmetry with the query functions but not required."""
    return {
        name: list(mapper.session.execute("EXPLAIN " + step))
        if isinstance(step, str) else kernel_plan(mapper, step).explain()
        for name, step in _steps(_mapping_of(mapper)).items()
    }


def _strategy_plans(mapper) -> Dict[str, Optional[Plan]]:
    """Step → live plan: kernel plans fetched (built on first use),
    statement plans *peeked* from the session's cache — a statement that
    never executed maps to ``None`` instead of being compiled, so reading
    the plans never changes what a later execution does."""
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

    Returns ``{"answer": ..., "steps": {step: rows}}``, the answer
    exactly a plain :func:`stored_point_query`'s.  A step the walk never
    reached (the cube scan and count, a warm MySQL-Min reconstruction)
    reports zero actuals.
    """
    before = {step: snapshot_counters(plan)
              for step, plan in _strategy_plans(mapper).items() if plan is not None}
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.enabled = True  # accrue per-operator wall/CPU for this run
    try:
        answer = stored_point_query(mapper, schema_id, coordinates)
    finally:
        tracer.enabled = was_enabled
    steps = {step: annotate_explain(plan, before.get(step))
             for step, plan in _strategy_plans(mapper).items() if plan is not None}
    return {"answer": answer, "steps": steps}


# ----------------------------------------------------------------------
# count and declarative select
# ----------------------------------------------------------------------
def stored_cell_count(mapper, schema_id: int) -> int:
    """How many cells the stored cube ``schema_id`` holds, counted in
    storage by ``Aggregate(FullScan)`` with ``schema_id`` pushed down —
    no cell row is built.

    On a live overlay it counts the stored cells of the base and every
    unmerged delta, summed — not those of the merged cube, which a merge
    (folding shared cells together) lowers it to.
    """
    kernel = _steps(_mapping_of(mapper))["cube_count"]
    t0 = wall_clock() if _QUERY_LOG.enabled else 0.0
    cube_ids = _cube_ids(mapper, schema_id)
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

    Accepts the constraint vocabulary (``Member``/``In``/``Range``/
    ``Each``/``All``) keyed by dimension name; unmentioned dimensions
    aggregate through their ALL cells.  Yields ``(coordinates, value)``
    exactly like :func:`repro.dwarf.query.select`, reading every node
    and cell from storage — nothing is rebuilt in memory.

    ``strategy="walk"`` (default) reads level by level like
    :func:`stored_point_query`; ``"scan"`` reads the cube's cells in one
    pushed scan (``schema_id = ?0``, plus ``key IN ?1`` when every
    constraint is ``All``/``Member``/``In``; zone-mapped blocks are
    skipped unread) and walks the in-memory sibling groups.  It needs
    cells that carry their parent node: MySQL-DWARF's do not.

    A maintained cube is read through its epoch like
    :func:`stored_point_query`; the overlay's rows stream out in the
    canonical member order the single-cube walk produces.

    Raises :class:`~repro.core.errors.QueryError` for an unknown
    ``strategy`` or constraint, :class:`MappingError` for a scan without
    parent columns, a missing stored node or a cell pointing at none.
    """
    rows = _stored_select_impl(mapper, schema_id, constraints, strategy, **by_name)
    return _logged_select(mapper, strategy, rows) if _QUERY_LOG.enabled else rows


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
    """The :func:`stored_select` walk (a generator: errors surface at
    first iteration)."""
    mapping = _mapping_of(mapper)
    if strategy not in ("walk", "scan"):
        raise QueryError(f"unknown stored_select strategy {strategy!r}")
    opener = _OPENERS[_walk_kind(mapping)]
    if strategy == "scan":
        if mapping.cells.column("parent_node_id") is None:
            raise MappingError(
                f"{mapper.name} has no scan strategy: its {mapping.cells.name} rows do "
                f"not carry their parent node, so a scan cannot group them into nodes"
            )
        opener = _open_scan
    spec = dict(constraints or {})
    spec.update(by_name)

    cube_ids = _cube_ids(mapper, schema_id)
    schema = mapper.stored_schema(cube_ids[0])
    per_level: List[Constraint] = [All()] * schema.n_dimensions
    for name, constraint in spec.items():
        if not isinstance(constraint, Constraint):
            raise QueryError(f"constraint for {name!r} must be a Constraint")
        per_level[schema.dimension_index(name)] = constraint
    levels = [_level(constraint) for constraint in per_level]
    yield from _answers(mapper, opener, cube_ids, levels, schema.aggregator.merge)


def _level(constraint: Constraint) -> Level:
    """A constraint as a walk level: the encoded keys ``All``/``Member``/
    ``In`` admit (an encoded member never equals the ALL marker), or the
    keep test of ``Each``/``Range``."""
    if isinstance(constraint, All):
        return (ALL_KEY_TEXT,), None, False
    if isinstance(constraint, Member):
        return (encode_member(constraint.key),), None, True
    if isinstance(constraint, In):
        return tuple({encode_member(key) for key in constraint.keys}), None, True
    if isinstance(constraint, Each):
        return None, ALL_KEY_TEXT.__ne__, True
    if isinstance(constraint, Range):
        return None, partial(_in_range, constraint), True
    raise QueryError(f"unsupported constraint {constraint!r}")


def _in_range(constraint: Range, key: str) -> bool:
    if key == ALL_KEY_TEXT:
        return False
    try:
        return constraint.lo <= decode_member(key) <= constraint.hi
    except TypeError:
        return False  # a member not comparable to the bounds
