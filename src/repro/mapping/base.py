"""The mapper and the shared transformation machinery.

A :class:`CubeMapper` is one storage schema from the paper's evaluation
(NoSQL-DWARF, NoSQL-Min, MySQL-DWARF, MySQL-Min), driven entirely by
that schema's :class:`~repro.mapping.schema_mapping.SchemaMapping`
declaration.  Every mapper is *bi-directional*: ``store`` walks the
in-memory DWARF breadth-first once (with the §4 lookup-table guard),
emitting one column per node and cell role, and hands each table the
columns its INSERT names as one batch; ``load`` reads the columns back
and reassembles an identical, queryable
:class:`~repro.dwarf.cube.DwarfCube`.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import compress
from operator import attrgetter, itemgetter
from typing import Callable, Collection, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.errors import ReproError
from repro.core.schema import CubeSchema, Dimension
from repro.core.tuples import member_sort_key
from repro.dwarf.cell import ALL, DwarfCell
from repro.dwarf.cube import DwarfCube
from repro.dwarf.node import DwarfNode
from repro.mapping.lookup import LookupTable
from repro.mapping.schema_mapping import SchemaMapping, Table
from repro.query import (
    Aggregate,
    Columns,
    FullScan,
    Plan,
    PushedCondition,
    PushedPredicate,
    count_rows,
    table_guard,
)
from repro.telemetry import get_tracer

#: Reserved ``key`` text of ALL cells in storage.
ALL_KEY_TEXT = "__ALL__"


class MappingError(ReproError):
    """A cube cannot be mapped to / reconstructed from storage."""


class StoredSchemaInfo(NamedTuple):
    """One row of the schema/cube registry (paper Table 1-A).

    ``size_as_mb`` keeps the paper's integer-megabyte column (Table 4);
    ``size_as_bytes`` is the exact footprint, because at reduced
    ``REPRO_SCALE`` every cube floors to 0 MB and the megabyte column
    alone makes size comparisons degenerate.
    """

    schema_id: int
    node_count: int
    cell_count: int
    size_as_mb: int
    entry_node_id: Optional[int]
    is_cube: bool
    size_as_bytes: Optional[int] = None


# ----------------------------------------------------------------------
# member <-> text codec
# ----------------------------------------------------------------------
def encode_member(key) -> str:
    """Losslessly encode a dimension member into the ``key text`` column.

    The paper stores cell keys as ``text``; feeds also produce integer
    members (e.g. the hour), so a one-character type prefix keeps the
    round trip exact: ``s:Fenian St``, ``i:8``, ``f:3.5``, ``b:1``.
    """
    if key is ALL:
        return ALL_KEY_TEXT
    if isinstance(key, bool):
        return f"b:{int(key)}"
    if isinstance(key, int):
        return f"i:{key}"
    if isinstance(key, float):
        # Non-finite floats get canonical spellings instead of repr() so
        # the stored text is platform-independent.
        if key != key:
            return "f:nan"
        if key == float("inf"):
            return "f:inf"
        if key == float("-inf"):
            return "f:-inf"
        return f"f:{key!r}"
    if isinstance(key, str):
        return f"s:{key}"
    raise MappingError(f"unsupported dimension member type: {type(key).__name__}")


def decode_member(text: str):
    """Inverse of :func:`encode_member` (does not decode ALL_KEY_TEXT)."""
    if len(text) < 2 or text[1] != ":":
        raise MappingError(f"corrupt member encoding: {text!r}")
    tag, payload = text[0], text[2:]
    if tag == "s":
        return payload
    if tag == "i":
        return int(payload)
    if tag == "f":
        if payload == "nan":
            return math.nan  # the one NaN member: see canonical_member
        if payload == "inf":
            return float("inf")
        if payload == "-inf":
            return float("-inf")
        try:
            return float(payload)
        except ValueError:
            raise MappingError(f"corrupt float member encoding: {text!r}") from None
    if tag == "b":
        return bool(int(payload))
    raise MappingError(f"corrupt member tag in {text!r}")


# ----------------------------------------------------------------------
# traversal -> flat transformation records
# ----------------------------------------------------------------------
class NodeRecord(NamedTuple):
    node_id: int
    level: int
    is_root: bool
    children_cell_ids: Tuple[int, ...]
    parent_cell_ids: Tuple[int, ...]


class CellRecord(NamedTuple):
    cell_id: int
    key_text: str
    measure: Optional[int]
    parent_node_id: int
    pointer_node_id: Optional[int]
    is_leaf: bool
    is_root_cell: bool
    dimension_table: Optional[str]
    level: int


class TransformedCube(NamedTuple):
    """The flat form as records: one per node and cell."""

    nodes: List[NodeRecord]
    cells: List[CellRecord]
    entry_node_id: int


class CubeColumns(NamedTuple):
    """The flat form every mapper stores, one column per role.

    ``nodes`` and ``cells`` map each :class:`NodeRecord` /
    :class:`CellRecord` field to a sequence whose ``i``-th entry belongs
    to the ``i``-th node / cell in breadth-first visit order — the ids
    are positional, ``first id + i``.  ``children_cell_ids`` and
    ``parent_cell_ids`` hold lists.  An id is one int object wherever it
    appears, so every table storing it shares that object.
    """

    nodes: Dict[str, Sequence]
    cells: Dict[str, Sequence]
    entry_node_id: int


def cube_columns(cube: DwarfCube, first_node_id: int = 1, first_cell_id: int = 1) -> CubeColumns:
    """Flatten a DWARF into node and cell columns in one breadth-first
    pass (paper §4): a node's id is assigned where a cell first points
    at it (the lookup-table guard), its cells' ids when it is visited,
    and each distinct member's key text is encoded once.

    Raises :class:`MappingError` for cubes whose aggregation states are
    not integers — the paper's column families type ``measure`` as
    ``int`` (Table 1-C), which covers SUM/COUNT/MIN/MAX over integer
    measures but not AVG states.
    """
    with get_tracer().span("mapper.transform", schema=cube.schema.name):
        root = cube.root
        node_table = LookupTable(first_node_id)
        node_ids = [node_table.assign(root)[0]]
        cell_ids: List[int] = []
        tables = [dimension.dimension_table for dimension in cube.schema.dimensions]
        levels: List[int] = []
        children: List[List[int]] = []
        parents: List[List[int]] = [[]]  # per node, the cells pointing at it
        keys: List[str] = []
        measures: List[Optional[int]] = []
        pointers: List[Optional[int]] = []
        cell_levels: List[int] = []
        owners: List[int] = []
        # Member -> key text for str and int members, the bulk of every
        # feed.  Other types are encoded each time: a dict would conflate
        # True with 1 and -0.0 with 0.0.
        texts: Dict[object, str] = {}
        next_cell = first_cell_id
        queue = [root]
        for node_id, node in zip(node_ids, queue):  # both grow as the walk goes
            cells = list(node.all_cells())
            n_cells = len(cells)
            ids = list(range(next_cell, next_cell + n_cells))
            cell_ids += ids
            level = node.level
            levels.append(level)
            children.append(ids)
            cell_levels += [level] * n_cells
            owners += [node_id] * n_cells
            for cell_id, cell in zip(ids, cells):
                key = cell.key
                kind = type(key)
                if kind is str or kind is int:
                    text = texts.get(key)
                    if text is None:
                        text = texts[key] = encode_member(key)
                else:
                    text = encode_member(key)
                keys.append(text)
                child = cell.node
                if child is None:
                    value = cell.value
                    if not isinstance(value, int) or isinstance(value, bool):
                        raise MappingError(
                            "storage schemas type measure as int (paper Table 1-C); "
                            f"cannot store aggregation state {value!r} — use an "
                            "integer-valued distributive aggregator"
                        )
                    measures.append(value)
                    pointers.append(None)
                else:
                    pointer, first_visit = node_table.assign(child)
                    if first_visit:
                        queue.append(child)
                        node_ids.append(pointer)
                        parents.append([cell_id])
                    else:
                        parents[pointer - first_node_id].append(cell_id)
                    measures.append(None)
                    pointers.append(pointer)
            next_cell += n_cells
        n_root_cells = len(children[0])
        n_cells = len(cell_ids)
        nodes = {
            "node_id": node_ids,
            "level": levels,
            "is_root": [True] + [False] * (len(queue) - 1),
            "children_cell_ids": children,
            "parent_cell_ids": parents,
        }
        cells = {
            "cell_id": cell_ids,
            "key_text": keys,
            "measure": measures,
            "parent_node_id": owners,
            "pointer_node_id": pointers,
            "is_leaf": [pointer is None for pointer in pointers],
            "is_root_cell": [True] * n_root_cells + [False] * (n_cells - n_root_cells),
            "dimension_table": [tables[level] for level in cell_levels],
            "level": cell_levels,
        }
        return CubeColumns(nodes, cells, node_ids[0])


def transform_cube(
    cube: DwarfCube,
    first_node_id: int = 1,
    first_cell_id: int = 1,
) -> TransformedCube:
    """:func:`cube_columns` as node/cell records, BFS order (paper §4) —
    the record view the oracle and checkers read; ``store`` writes the
    columns.  Raises :class:`MappingError` as :func:`cube_columns` does."""
    flat = cube_columns(cube, first_node_id, first_cell_id)
    nodes = dict(flat.nodes)
    nodes["children_cell_ids"] = map(tuple, nodes["children_cell_ids"])
    nodes["parent_cell_ids"] = map(tuple, nodes["parent_cell_ids"])
    return TransformedCube(
        nodes=list(map(NodeRecord, *(nodes[field] for field in NodeRecord._fields))),
        cells=list(map(CellRecord, *(flat.cells[field] for field in CellRecord._fields))),
        entry_node_id=flat.entry_node_id,
    )


# ----------------------------------------------------------------------
# cell columns -> DWARF (the reverse direction)
# ----------------------------------------------------------------------
#: The cell roles a rebuild reads, in the order :func:`assemble_cube`
#: takes their columns (also the first six :class:`CellRecord` fields).
CELL_ROLES = ("cell_id", "key_text", "measure", "parent_node_id", "pointer_node_id", "is_leaf")


def assemble_cube(
    schema: CubeSchema,
    entry_node_id: int,
    node_ids: Collection[int],
    cells: Sequence[Sequence],
    n_source_tuples: int = 0,
) -> Tuple[DwarfCube, int]:
    """Reassemble a DWARF from its cells, one column per
    :data:`CELL_ROLES` role, joined on their unique ids (paper §3).

    Storage keeps no node levels: one breadth-first pass from the entry
    node creates each node where first reached and places every cell,
    grouped by parent once.  ``node_ids`` are the nodes a cell may point
    at.  Returns the cube and its node count.

    Raises :class:`MappingError` unless every cell is placed exactly
    once: the entry node or a pointed-at node is not in ``node_ids``, a
    node holds a member key twice or two ALL cells, or a cell's parent
    is unreachable from the entry node.
    """
    cell_ids, keys, measures, parents, pointers, leaves = cells
    with get_tracer().span("mapper.rebuild", schema=schema.name, cells=len(cell_ids)) as span:
        if entry_node_id not in node_ids:
            raise MappingError(f"entry node {entry_node_id} missing from node records")
        by_parent: Dict[int, List[int]] = {}
        for position, parent in enumerate(parents):
            by_parent.setdefault(parent, []).append(position)
        # key text -> (member, sort key): a member recurs in many nodes.
        decoded: Dict[str, tuple] = {ALL_KEY_TEXT: (ALL, None)}
        nodes = {entry_node_id: DwarfNode(0)}
        queue = [entry_node_id]
        for node_id in queue:  # grows while it is walked: the BFS frontier
            node = nodes[node_id]
            members = []
            for position in by_parent.pop(node_id, ()):
                text = keys[position]
                key_order = decoded.get(text)
                if key_order is None:
                    key = decode_member(text)
                    key_order = decoded[text] = (key, member_sort_key(key))
                key, order = key_order
                if leaves[position]:
                    cell = DwarfCell(key, None, measures[position])
                else:
                    pointer = pointers[position]
                    child = nodes.get(pointer)
                    if child is None:
                        if pointer not in node_ids:
                            raise MappingError(
                                f"cell {cell_ids[position]} points at missing node {pointer}"
                            )
                        child = nodes[pointer] = DwarfNode(node.level + 1)
                        queue.append(pointer)
                    cell = DwarfCell(key, child)
                if order is not None:
                    members.append((order, cell))
                elif node.all_cell is None:
                    node.all_cell = cell
                else:
                    raise MappingError(f"node {node_id} holds two ALL cells")
            members.sort(key=itemgetter(0))
            for _, cell in members:
                node.add_cell(cell)
            if node.n_cells != len(members):
                raise MappingError(f"node {node_id} holds a member key twice")
        if by_parent:
            stray = next(iter(by_parent.values()))[0]
            raise MappingError(
                f"cell {cell_ids[stray]} hangs off node {parents[stray]}, "
                f"unreachable from entry node {entry_node_id}"
            )
        span.set("nodes", len(nodes))
        return DwarfCube(schema, nodes[entry_node_id], n_source_tuples=n_source_tuples), len(nodes)


def rebuild_cube(
    schema: CubeSchema,
    nodes: List[NodeRecord],
    cells: List[CellRecord],
    entry_node_id: int,
    n_source_tuples: int = 0,
) -> DwarfCube:
    """:func:`assemble_cube` over the records :func:`transform_cube`
    emits.  Raises :class:`MappingError` as :func:`assemble_cube` does."""
    columns = [list(map(attrgetter(role), cells)) for role in CELL_ROLES]
    node_ids = {record.node_id for record in nodes}
    return assemble_cube(schema, entry_node_id, node_ids, columns, n_source_tuples)[0]


# ----------------------------------------------------------------------
# direct kernel plans over a schema's tables
# ----------------------------------------------------------------------
class Kernel(NamedTuple):
    """A read run as a direct kernel plan, cached as ``stored:<label>``."""

    label: str
    build: Callable[["CubeMapper"], Plan]


def kernel_plan(mapper: "CubeMapper", kernel: Kernel) -> Plan:
    """A direct :mod:`repro.query` plan, memoised in the session's cache.

    Keyed ``(scope, "stored:<label>", cube_epoch)`` next to the
    statement-text entries, so warm stored-query walks register as
    plan-cache hits and DDL on the underlying table invalidates them
    through the plan's guards like any other cached plan.  The epoch in
    the key closes a staleness window: after an epoch flip of a
    maintained cube, pre-flip kernels become unreachable and LRU-evict
    instead of walking superseded rows.
    """
    cache = mapper.session.plan_cache
    key = (mapper.namespace, "stored:" + kernel.label, mapper.cube_epoch)
    plan = cache.get(key)
    if plan is None:
        plan = kernel.build(mapper)
        cache.put(key, plan)
    return plan


def guarded_table(mapper: "CubeMapper", name: str):
    """The storage table ``name`` a kernel plan binds, the plan-cache
    guard that revalidates it, and its block-cache hit counter (if it
    has one)."""
    resolve = lambda: mapper.table(name)
    table = resolve()
    probe = (lambda: table.block_cache_hits) if mapper.mapping.backend.block_cache else None
    return table, (table_guard(resolve, table),), probe


def key_match(cells: Table, op: str = "=", marker: str = "?1") -> PushedCondition:
    key = cells.column("key_text")
    return PushedCondition(key, op, lambda params: params[1], f"{key} {op} {marker}")


def build_cube_scan(mapper: "CubeMapper", keyed: bool = False, count: bool = False,
                    table: Optional[Table] = None, among: bool = False) -> Plan:
    """One full scan over ``table`` (default: the cells), pushed down to
    one stored cube where the table has a ``schema_id`` column — with
    ``among``, to every cube of a list of ids.

    ``schema_id = ?0`` (``schema_id IN ?0``) travels into the storage
    layer, so zone-mapped columnar blocks holding only other cubes' rows
    are skipped unread; ``keyed`` also pushes ``key IN ?1`` (all-keyed
    selects).  With ``count``, ``Aggregate(FullScan)`` sums the
    surviving selections — no cell row is ever materialised
    (docs/query_kernel.md).
    """
    declared = table or mapper.mapping.cells
    storage, guards, _ = guarded_table(mapper, declared.name)
    cube = declared.column("schema_id")
    op = "IN" if among else "="
    conditions = () if cube is None else (
        PushedCondition(cube, op, lambda params: params[0], f"{cube} {op} ?0"),
    )
    if keyed:
        conditions += (key_match(declared, "IN"),)
    root = FullScan(storage, declared.name,
                    pushed=PushedPredicate(conditions) if conditions else None)
    if count:
        root = Aggregate(root, count_rows, "count(*)")
    return Plan(root, guards=guards)


@lru_cache(maxsize=None)
def scan_kernel(mapping: SchemaMapping, table: Table, among: bool = False) -> Kernel:
    """The :func:`build_cube_scan` of one of ``mapping``'s tables; the
    cells' is ``cube_scan``, the scan ``stored_select`` runs too."""
    name = "cube_scan" if table is mapping.cells else f"{table.name}_scan"
    return Kernel(f"{mapping.label}:{name}{'_among' if among else ''}",
                  partial(build_cube_scan, table=table, among=among))


# ----------------------------------------------------------------------
# the mapper: one implementation, driven by a SchemaMapping
# ----------------------------------------------------------------------

class CubeMapper:
    """One storage schema: install, store, probe, reload — all derived
    from the :attr:`mapping` a subclass declares (with :attr:`name`, the
    paper's label); it passes an engine and the keyspace/database."""

    #: The schema declaration (:mod:`repro.mapping.schema_mapping`).
    mapping: SchemaMapping

    #: Label used in benchmark tables, e.g. ``"NoSQL-DWARF"``.
    name = "?"

    #: Monotone counter bumped on every epoch flip of a maintained cube.
    #: Plan-cache keys for stored-query kernels include it, so a flip
    #: makes every pre-flip cached walk unreachable (it LRU-evicts)
    #: instead of serving rows from a superseded physical cube.
    cube_epoch = 0

    def __init__(self, engine, namespace: str) -> None:
        self.engine = engine
        self.namespace = namespace
        self.session = engine.connect()
        self._installed = False
        self._query_statements: Dict[str, object] = {}
        self._epoch_table_present = False
        # Memoisations keyed by stored cube id.  Ids restart at 1 after
        # reset(), so bump_cube_epoch() empties every one of them.
        self._schema_cache: Dict[int, CubeSchema] = {}
        self._entry_cache: Dict[int, int] = {}
        self._reconstruction_cache: Dict[int, tuple] = {}

    def bump_cube_epoch(self) -> None:
        """Invalidate per-mapper derived caches after an epoch flip or a
        reset; storage-level row caches are invalidated by the writes."""
        self.cube_epoch += 1
        for cache in (self._schema_cache, self._entry_cache, self._reconstruction_cache):
            cache.clear()

    # -- namespace -------------------------------------------------------
    def space(self):
        """The keyspace (NoSQL) or database (SQL) holding the schema."""
        return self.mapping.backend.space(self.engine, self.namespace)

    def table(self, name: str):
        return self.space().table(name)

    def size_bytes(self) -> int:
        """Total on-disk footprint of this mapper's storage."""
        return self.space().size_bytes

    # -- write side ------------------------------------------------------
    def install(self) -> None:
        """Create the keyspace/database, its tables and indexes
        (idempotent)."""
        mapping, session = self.mapping, self.session
        session.execute(
            f"CREATE {mapping.backend.namespace_kind} IF NOT EXISTS {self.namespace}"
        )
        session.execute(f"USE {self.namespace}")
        for table in mapping.tables:
            session.execute(table.ddl())
        for table in mapping.tables:
            for column in table.indexes:
                session.execute(f"CREATE INDEX IF NOT EXISTS ON {table.name} ({column})")
        self._installed = True

    def _next_ids(self) -> Dict[str, int]:
        """Allocate the next schema/node/cell ids by querying the registry (§4)."""
        registry = self.mapping.registry
        ids, nodes, cells = self._columns(registry, ("id", "node_count", "cell_count"))
        return {"schema": max(ids, default=0) + 1, "node": sum(nodes) + 1, "cell": sum(cells) + 1}

    def store(self, cube: DwarfCube, is_cube: bool = False, probe_size: bool = True) -> int:
        """Persist ``cube`` — one registry row, then every other table's
        column batch through ``execute_many``; returns the new id."""
        if not self._installed:
            raise MappingError(f"{self.name}: call install() before store()")
        ids = self._next_ids()
        flat = cube_columns(cube, first_node_id=ids["node"], first_cell_id=ids["cell"])
        schema_id = ids["schema"]
        registry = self.mapping.registry
        self.session.execute_prepared(
            cached_statement(self, registry.insert()), self._registry_row(flat, schema_id, is_cube)
        )
        for table, batch in self._batches(flat, cube.schema, schema_id):
            self.session.execute_many(cached_statement(self, table.insert()), batch)
        self._entry_cache[schema_id] = flat.entry_node_id
        if probe_size:
            self.probe_size(schema_id)
        return schema_id

    def _registry_row(self, flat: CubeColumns, schema_id: int, is_cube: bool) -> tuple:
        values = {
            "id": schema_id, "node_count": len(flat.nodes["node_id"]),
            "cell_count": len(flat.cells["cell_id"]), "size_as_mb": 0,
            "entry_node_id": flat.entry_node_id, "is_cube": is_cube,
        }
        return tuple(values[column.role] for column in self.mapping.registry.written)

    def _batches(self, flat: CubeColumns, schema: CubeSchema, schema_id: int):
        """``(table, Columns)`` for every table but the registry, INSERT order."""
        mapping = self.mapping
        out = []
        if mapping.nodes is not None:
            out.append((mapping.nodes, _batch(mapping.nodes, flat.nodes, schema_id)))
        out.append((mapping.cells, _batch(mapping.cells, flat.cells, schema_id)))
        for link in mapping.links:
            out.append((link, _edges(_batch(link, flat.cells, schema_id))))
        dimensions = mapping.dimensions
        out.append((dimensions, Columns.of([
            tuple(row[column.role] for column in dimensions.written)
            for row in schema_to_rows(schema, schema_id)
        ])))
        return out

    def probe_size(self, schema_id: int) -> int:
        """Measure the store and write ``size_as_mb`` back (paper §4).

        Also records the exact byte count: sub-megabyte cubes at reduced
        ``REPRO_SCALE`` floor to 0 MB, and bench reporting needs a
        non-degenerate size column.
        """
        size_bytes = self.size_bytes()
        size_mb = size_bytes // (1024 * 1024)
        self.session.execute(
            f"UPDATE {self.mapping.registry.name} SET size_as_mb = ?, "
            "size_as_bytes = ? WHERE id = ?",
            (size_mb, size_bytes, schema_id),
        )
        return size_mb

    # -- read side -------------------------------------------------------
    def info(self, schema_id: int) -> StoredSchemaInfo:
        """The registry row for ``schema_id``."""
        row = self.session.execute(
            f"SELECT * FROM {self.mapping.registry.name} WHERE id = ?", (schema_id,)
        ).one()
        if row is None:
            raise MappingError(f"no stored schema with id {schema_id}")
        return self._info(row)

    def _info(self, row) -> StoredSchemaInfo:
        dwarf = self.mapping.registry.column("entry_node_id") is not None
        return StoredSchemaInfo(
            schema_id=row["id"],
            node_count=row["node_count"],
            cell_count=row["cell_count"],
            size_as_mb=row["size_as_mb"],
            entry_node_id=row["entry_node_id"] if dwarf else None,
            is_cube=row["is_cube"] if dwarf else False,
            size_as_bytes=row["size_as_bytes"],
        )

    def list_schemas(self) -> List[StoredSchemaInfo]:
        rows = self.session.execute(f"SELECT * FROM {self.mapping.registry.name}")
        return sorted(map(self._info, rows), key=lambda info: info.schema_id)

    def _columns(self, table: Table, roles: Sequence[str], schema_id: Optional[int] = None,
                 schema_ids: Optional[Sequence[int]] = None) -> List[List]:
        """The ``roles`` columns of ``table``'s rows — of stored cube
        ``schema_id``, or of every cube in ``schema_ids``, where the
        table has a ``schema_id`` column."""
        among = schema_ids is not None
        plan = kernel_plan(self, scan_kernel(self.mapping, table, among))
        return plan.columns([table.column(role) for role in roles],
                            (schema_ids if among else schema_id,))

    def stored_schema(self, schema_id: int) -> CubeSchema:
        """The :class:`CubeSchema` stored with cube ``schema_id``, read
        from the dimension registry once and cached per id.

        Raises :class:`MappingError` for an unknown id, or one stored
        without dimension rows.
        """
        schema = self._schema_cache.get(schema_id)
        if schema is None:
            positions, names, tables, schema_names, measures, aggregators = self._columns(
                self.mapping.dimensions, ("position", "name", "dimension_table",
                                          "schema_name", "measure", "aggregator"), schema_id,
            )
            if not positions:
                self.info(schema_id)  # an unknown id: "no stored schema"
                raise MappingError(f"no dimension metadata stored for schema id {schema_id}")
            from repro.core.aggregators import Aggregator

            order = sorted(range(len(positions)), key=positions.__getitem__)
            first = order[0]
            schema = self._schema_cache[schema_id] = CubeSchema(
                schema_names[first],
                [Dimension(names[i], dimension_table=tables[i]) for i in order],
                measure=measures[first],
                aggregator=Aggregator.get(aggregators[first]),
            )
        return schema

    def load(self, schema_id: int, schema: Optional[CubeSchema] = None) -> DwarfCube:
        """Rebuild the DWARF stored under ``schema_id`` — read the columns
        the rebuild needs and join them on their unique ids (paper §3).

        Raises :class:`MappingError` for an unknown id, and when the rows
        read are not the cube the registry describes: a cell row lost,
        repeated or orphaned, or a pointer to a missing node.
        """
        mapping = self.mapping
        with get_tracer().span("mapper.load", schema=self.name) as span:
            dwarf = mapping.registry.column("entry_node_id") is not None
            ids, *registered = self._columns(
                mapping.registry, ("id", "cell_count", "node_count", "entry_node_id")[:3 + dwarf]
            )
            if schema_id not in ids:
                raise MappingError(f"no stored schema with id {schema_id}")
            at = ids.index(schema_id)
            cell_count, node_count, *entry = (column[at] for column in registered)
            if schema is None:
                schema = self.stored_schema(schema_id)
            roles = CELL_ROLES if dwarf else CELL_ROLES + ("is_root_cell",)
            columns = self._cell_columns(roles, schema_id)
            parents = columns[3]
            if mapping.nodes is None:
                # Rebuild the DWARF-node construct the schema chose not to store.
                node_ids = set(parents)
            else:
                node_ids = set(self._columns(mapping.nodes, ("node_id",), schema_id)[0])
            if dwarf:
                (entry,) = entry
            else:  # no entry_node_id in the registry: the root cells' parent
                entry = next((parent for parent, root in zip(parents, columns[6]) if root), None)
                if entry is None:
                    raise MappingError("stored cube has no root cells")
            cube, n_nodes = assemble_cube(schema, entry, node_ids, columns[:6])
            n_cells = len(parents)
            span.set("nodes", n_nodes)
            span.set("cells", n_cells)
            span.set("columns", len(roles) + (mapping.nodes is not None))
        if (n_cells, n_nodes) != (cell_count, node_count):
            raise MappingError(
                f"{self.name} cube {schema_id}: its rows rebuild {n_cells} cells / "
                f"{n_nodes} nodes, the registry records {cell_count} / {node_count}"
            )
        return cube

    def _cell_columns(self, roles: Sequence[str], schema_id: Optional[int] = None,
                      schema_ids: Optional[Sequence[int]] = None) -> List[List]:
        """The cells of cube ``schema_id`` (of the cubes ``schema_ids``)
        as one column per role: the cell table's through the pushed cube
        scan, a role it lacks joined in by cell id from the link table
        holding it."""
        cells = self.mapping.cells
        stored = [role for role in roles if cells.column(role) is not None]
        read = dict(zip(stored, self._columns(cells, stored, schema_id, schema_ids)))
        for role in roles:
            if role not in read:
                link = self.mapping.link(role)
                edges = dict(zip(*self._columns(link, ("cell_id", role))))
                read[role] = list(map(edges.get, read["cell_id"]))
        return [read[role] for role in roles]

    # -- removal ---------------------------------------------------------
    def delete_cube_rows(self, schema_ids: Sequence[int]) -> int:
        """Remove the node/cell/link/dimension rows of the stored cubes
        ``schema_ids`` (compaction) the way ``store`` wrote them: each
        table gets the primary keys of those cubes' rows as one batch
        through ``execute_many`` of its key DELETE.  Returns the count
        removed.

        The keys come from one pushed ``schema_id IN ?0`` scan per
        table; a link table's, which carry no cube id, from the cell
        columns ``load`` joins, read for every id at once, through the
        :func:`_edges` that wrote them.  The registry rows are kept as
        allocation watermarks so ``_next_ids`` never reissues a
        reclaimed range.
        """
        ids = list(schema_ids)
        if not ids:
            return 0
        mapping = self.mapping
        linked = list(dict.fromkeys(c.role for link in mapping.links for c in link.key_columns))
        cells = dict(zip(linked, self._cell_columns(linked, schema_ids=ids))) if linked else {}
        reclaimed = 0
        for table in mapping.stored_tables[1:]:
            roles = [column.role for column in table.key_columns]
            if table in mapping.links:
                keys = _edges(Columns(len(cells["cell_id"]), tuple(map(cells.get, roles))))
            else:
                columns = self._columns(table, roles, schema_ids=ids)
                keys = Columns(len(columns[0]), tuple(columns))
            reclaimed += self.session.execute_many(cached_statement(self, table.delete()), keys)
        for schema_id in ids:
            self._entry_cache.pop(schema_id, None)
        return reclaimed

    def reset(self) -> None:
        """Remove all stored cubes (TRUNCATE every table) and forget every
        mapper-local cache — stored ids restart at 1."""
        space = self.space()
        for table in self.mapping.tables:
            if space.has_table(table.name):
                self.session.execute(f"TRUNCATE {self.namespace}.{table.name}")
        self.mapping.backend.settle(space)
        self.bump_cube_epoch()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _batch(table: Table, roles: Dict[str, Sequence], schema_id: int) -> Columns:
    """``table``'s INSERT columns selected by role from a
    :class:`CubeColumns` side: a ``schema_id`` column is the stored
    cube's id throughout, a ``set<...>`` column holds each id group as a
    set."""
    n = len(next(iter(roles.values())))
    values = []
    for column in table.written:
        if column.role == "schema_id":
            values.append([schema_id] * n)
        elif column.type.startswith("set<"):
            values.append(list(map(set, roles[column.role])))
        else:
            values.append(roles[column.role])
    return Columns(n, tuple(values))


def _edges(batch: Columns) -> Columns:
    """A link table's batch without the rows holding a None: one row per
    edge, and a leaf cell points at no node."""
    if not any(None in column for column in batch.values):
        return batch
    keep = [None not in row for row in batch.rows()]
    values = tuple(list(compress(column, keep)) for column in batch.values)
    return Columns(sum(keep), values)


def cached_statement(mapper: CubeMapper, text: str):
    """``text`` prepared once per mapper; its plan lives in the session's
    :class:`~repro.query.PlanCache`, so repeated executions only bind
    parameters."""
    statement = mapper._query_statements.get(text)
    if statement is None:
        statement = mapper._query_statements[text] = mapper.session.prepare(text)
    return statement


# ----------------------------------------------------------------------
# schema metadata persistence (shared by all mappers)
# ----------------------------------------------------------------------
def schema_to_rows(schema: CubeSchema, schema_id: int) -> List[Dict[str, object]]:
    """Dimension-registry rows making ``load`` self-contained.

    The paper's Table 1 stores no dimension names (it assumes the caller
    knows the cube definition); a bi-directional mapper needs them, so
    every mapper adds one small ``dwarf_dimension`` table.  Documented as
    a substitution in DESIGN.md.
    """
    rows = []
    for position, dimension in enumerate(schema.dimensions):
        rows.append(
            {
                "id": schema_id * 1000 + position,
                "schema_id": schema_id,
                "position": position,
                "name": dimension.name,
                "dimension_table": dimension.dimension_table,
                "schema_name": schema.name,
                "measure": schema.measure,
                "aggregator": schema.aggregator.name,
            }
        )
    return rows
