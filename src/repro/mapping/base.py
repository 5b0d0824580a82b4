"""The mapper and the shared transformation machinery.

A :class:`CubeMapper` is one storage schema from the paper's evaluation
(NoSQL-DWARF, NoSQL-Min, MySQL-DWARF, MySQL-Min), driven entirely by
that schema's :class:`~repro.mapping.schema_mapping.SchemaMapping`
declaration.  Every mapper is *bi-directional*: ``store`` walks the
in-memory DWARF breadth-first (with the §4 lookup-table guard), emits
one row per node/cell/edge and executes them in bulk; ``load`` reads the
rows back and reassembles an identical, queryable
:class:`~repro.dwarf.cube.DwarfCube`.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.errors import ReproError
from repro.core.schema import CubeSchema, Dimension
from repro.dwarf.cell import ALL, DwarfCell
from repro.dwarf.cube import DwarfCube
from repro.dwarf.node import DwarfNode
from repro.dwarf.traversal import breadth_first
from repro.mapping.lookup import LookupTable
from repro.mapping.schema_mapping import SchemaMapping, Table
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
        # the stored text is platform-independent: parallel workers that
        # serialise partition boundaries must not corrupt keys.
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
            return float("nan")
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
    """The flat form every mapper stores: one record per node and cell."""

    nodes: List[NodeRecord]
    cells: List[CellRecord]
    entry_node_id: int


def transform_cube(
    cube: DwarfCube,
    first_node_id: int = 1,
    first_cell_id: int = 1,
) -> TransformedCube:
    """Flatten a DWARF into node/cell records, BFS order (paper §4).

    Raises :class:`MappingError` for cubes whose aggregation states are
    not integers — the paper's column families type ``measure`` as
    ``int`` (Table 1-C), which covers SUM/COUNT/MIN/MAX over integer
    measures but not AVG states.
    """
    with get_tracer().span("mapper.transform", schema=cube.schema.name):
        node_table = LookupTable(first_node_id)
        cell_table = LookupTable(first_cell_id)
        nodes: Dict[int, NodeRecord] = {}
        parent_cells: Dict[int, List[int]] = {}
        cells: List[CellRecord] = []
        dimensions = cube.schema.dimensions

        root_id, _ = node_table.assign(cube.root)
        for visit in breadth_first(cube.root):
            if visit.cell is None:
                node = visit.node
                node_id = node_table.id_of(node)
                child_ids = []
                for cell in node.all_cells():
                    cell_id, _ = cell_table.assign(cell)
                    child_ids.append(cell_id)
                nodes[node_id] = NodeRecord(
                    node_id=node_id,
                    level=node.level,
                    is_root=node is cube.root,
                    children_cell_ids=tuple(child_ids),
                    parent_cell_ids=(),  # filled after the scan
                )
            else:
                node, cell = visit.node, visit.cell
                cell_id = cell_table.id_of(cell)
                pointer_id: Optional[int] = None
                if cell.node is not None:
                    pointer_id, _ = node_table.assign(cell.node)
                    parent_cells.setdefault(pointer_id, []).append(cell_id)
                measure: Optional[int] = None
                if cell.is_leaf:
                    if not isinstance(cell.value, int) or isinstance(cell.value, bool):
                        raise MappingError(
                            "storage schemas type measure as int (paper Table 1-C); "
                            f"cannot store aggregation state {cell.value!r} — use an "
                            "integer-valued distributive aggregator"
                        )
                    measure = cell.value
                dimension = dimensions[node.level]
                cells.append(
                    CellRecord(
                        cell_id=cell_id,
                        key_text=encode_member(cell.key),
                        measure=measure,
                        parent_node_id=node_table.id_of(node),
                        pointer_node_id=pointer_id,
                        is_leaf=cell.is_leaf,
                        is_root_cell=node is cube.root,
                        dimension_table=dimension.dimension_table,
                        level=node.level,
                    )
                )

        node_records = [
            record._replace(parent_cell_ids=tuple(parent_cells.get(record.node_id, ())))
            for record in nodes.values()
        ]
        return TransformedCube(nodes=node_records, cells=cells, entry_node_id=root_id)


# ----------------------------------------------------------------------
# flat records -> DWARF (the reverse direction)
# ----------------------------------------------------------------------
def rebuild_cube(
    schema: CubeSchema,
    nodes: List[NodeRecord],
    cells: List[CellRecord],
    entry_node_id: int,
    n_source_tuples: int = 0,
) -> DwarfCube:
    """Reassemble an in-memory DWARF from flat node/cell records.

    Joins nodes and cells on their unique ids (paper §3: "reading the
    records ... and joining them based on their unique ids").
    """
    from repro.dwarf.builder import _member_key

    with get_tracer().span(
        "mapper.rebuild", schema=schema.name, nodes=len(nodes), cells=len(cells)
    ):
        node_objects: Dict[int, DwarfNode] = {
            record.node_id: DwarfNode(record.level) for record in nodes
        }
        if entry_node_id not in node_objects:
            raise MappingError(f"entry node {entry_node_id} missing from node records")

        by_parent: Dict[int, List[CellRecord]] = {}
        for record in cells:
            by_parent.setdefault(record.parent_node_id, []).append(record)

        for node_record in nodes:
            node = node_objects[node_record.node_id]
            members: List[Tuple[object, CellRecord]] = []
            all_record: Optional[CellRecord] = None
            for cell_record in by_parent.get(node_record.node_id, ()):
                if cell_record.key_text == ALL_KEY_TEXT:
                    all_record = cell_record
                else:
                    members.append((decode_member(cell_record.key_text), cell_record))
            members.sort(key=lambda pair: _member_key(pair[0]))
            for key, cell_record in members:
                node.add_cell(_build_cell(key, cell_record, node_objects))
            if all_record is not None:
                node.all_cell = _build_cell(ALL, all_record, node_objects)

        return DwarfCube(schema, node_objects[entry_node_id], n_source_tuples=n_source_tuples)


def _build_cell(key, record: CellRecord, node_objects: Dict[int, DwarfNode]) -> DwarfCell:
    if record.is_leaf:
        return DwarfCell(key, value=record.measure)
    pointer = node_objects.get(record.pointer_node_id)
    if pointer is None:
        raise MappingError(
            f"cell {record.cell_id} points at missing node {record.pointer_node_id}"
        )
    return DwarfCell(key, node=pointer)


def derive_levels(cells: List[CellRecord], entry_node_id: int) -> Dict[int, int]:
    """Dimension level of every node id, derived from the cell graph.

    Storage schemas do not persist node levels; they follow from a BFS
    over parent-node → pointer-node edges starting at the entry node.
    """
    from collections import deque

    children: Dict[int, List[int]] = {}
    for record in cells:
        if record.pointer_node_id is not None:
            children.setdefault(record.parent_node_id, []).append(record.pointer_node_id)

    levels: Dict[int, int] = {entry_node_id: 0}
    queue = deque([entry_node_id])
    while queue:
        node_id = queue.popleft()
        for child_id in children.get(node_id, ()):
            if child_id not in levels:
                levels[child_id] = levels[node_id] + 1
                queue.append(child_id)
    return levels


# ----------------------------------------------------------------------
# the mapper: one implementation, driven by a SchemaMapping
# ----------------------------------------------------------------------
#: CellRecord fields no schema stores, and what ``load`` fills in.
_CELL_DEFAULTS = {"is_root_cell": False, "level": 0}


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

    #: Appended to every CREATE TABLE (NoSQL-DWARF's compression switch).
    table_options = ""

    def __init__(self, engine, namespace: str) -> None:
        self.engine = engine
        self.namespace = namespace
        self.session = engine.connect()
        self._prepared: Dict[str, object] = {}
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
        (idempotent) and prepare the INSERTs."""
        mapping, session = self.mapping, self.session
        session.execute(
            f"CREATE {mapping.backend.namespace_kind} IF NOT EXISTS {self.namespace}"
        )
        session.execute(f"USE {self.namespace}")
        for table in mapping.tables:
            session.execute(table.ddl() + self.table_options)
        for table in mapping.tables:
            for column in table.indexes:
                session.execute(f"CREATE INDEX IF NOT EXISTS ON {table.name} ({column})")
        self._prepared = {
            table.name: session.prepare(table.insert()) for table in mapping.stored_tables
        }

    def _next_ids(self) -> Dict[str, int]:
        """Allocate the next schema/node/cell ids by querying the registry (§4)."""
        ids = {"schema": 1, "node": 1, "cell": 1}
        for row in self.session.execute(f"SELECT * FROM {self.mapping.registry.name}"):
            ids["schema"] = max(ids["schema"], row["id"] + 1)
            ids["node"] += row["node_count"]
            ids["cell"] += row["cell_count"]
        return ids

    def store(self, cube: DwarfCube, is_cube: bool = False, probe_size: bool = True) -> int:
        """Persist ``cube`` — one registry row, then every other table's
        record batch through ``execute_many``; returns the new id."""
        if not self._prepared:
            raise MappingError(f"{self.name}: call install() before store()")
        ids = self._next_ids()
        transformed = transform_cube(
            cube, first_node_id=ids["node"], first_cell_id=ids["cell"]
        )
        schema_id = ids["schema"]
        self.session.execute_prepared(
            self._prepared[self.mapping.registry.name],
            self._registry_row(transformed, schema_id, is_cube),
        )
        for table, rows in self._record_rows(transformed, cube.schema, schema_id):
            self.session.execute_many(self._prepared[table.name], rows)
        self._entry_cache[schema_id] = transformed.entry_node_id
        if probe_size:
            self.probe_size(schema_id)
        return schema_id

    def _registry_row(self, transformed: TransformedCube, schema_id: int, is_cube: bool) -> tuple:
        values = {
            "id": schema_id, "node_count": len(transformed.nodes),
            "cell_count": len(transformed.cells), "size_as_mb": 0,
            "entry_node_id": transformed.entry_node_id, "is_cube": is_cube,
        }
        return tuple(values[column.role] for column in self.mapping.registry.written)

    def _record_rows(self, transformed: TransformedCube, schema: CubeSchema, schema_id: int):
        """``(table, rows)`` for every table but the registry, INSERT order."""
        mapping = self.mapping
        out = []
        if mapping.nodes is not None:
            out.append((mapping.nodes, _rows(mapping.nodes, transformed.nodes, schema_id)))
        out.append((mapping.cells, _rows(mapping.cells, transformed.cells, schema_id)))
        for link in mapping.links:
            # One row per edge: a leaf cell points at no node.
            edges = _rows(link, transformed.cells, schema_id)
            out.append((link, (row for row in edges if None not in row)))
        dimensions = mapping.dimensions
        out.append((dimensions, (
            tuple(row[column.role] for column in dimensions.columns)
            for row in schema_to_rows(schema, schema_id)
        )))
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

    def _select(self, table: Table, schema_id: int, columns: str = "*"):
        """``columns`` of every row of ``table`` in stored cube ``schema_id``."""
        return self.session.execute(
            f"SELECT {columns} FROM {table.name} WHERE {table.column('schema_id')} = ?"
            + self.mapping.backend.filtering,
            (schema_id,),
        )

    def stored_schema(self, schema_id: int) -> CubeSchema:
        """The :class:`CubeSchema` stored with cube ``schema_id``, read
        from the dimension registry once and cached per id."""
        schema = self._schema_cache.get(schema_id)
        if schema is None:
            rows = list(self._select(self.mapping.dimensions, schema_id))
            if not rows:
                self.info(schema_id)  # an unknown id: "no stored schema"
            schema = schema_from_rows(rows)
            self._schema_cache[schema_id] = schema
        return schema

    def load(self, schema_id: int, schema: Optional[CubeSchema] = None) -> DwarfCube:
        """Rebuild the DWARF stored under ``schema_id`` — read the records
        and join them on their unique ids (paper §3)."""
        mapping = self.mapping
        entry_node_id = self.info(schema_id).entry_node_id
        if schema is None:
            schema = self.stored_schema(schema_id)
        cells = self._cell_records(schema_id)
        if entry_node_id is None:
            entry_node_id = self._entry_node_id(cells)
        if mapping.nodes is None:
            # Rebuild the DWARF-node construct the schema chose not to store.
            node_ids = dict.fromkeys(record.parent_node_id for record in cells)
        else:
            key = mapping.nodes.column("node_id")
            node_ids = [row[key] for row in self._select(mapping.nodes, schema_id)]
        levels = derive_levels(cells, entry_node_id)
        nodes = _node_records(node_ids, cells, levels, entry_node_id)
        return rebuild_cube(schema, nodes, cells, entry_node_id)

    def _cell_records(self, schema_id: int) -> List[CellRecord]:
        """The cube's cells; a role the cell table lacks is joined in from
        the link table holding it, else takes its default."""
        cells = self.mapping.cells
        rows = list(self._select(cells, schema_id))
        ids = [row[cells.column("cell_id")] for row in rows]

        def field(role):
            name = cells.column(role)
            if name is not None:
                return map(itemgetter(name), rows)
            link = self.mapping.link(role)
            if link is not None:
                cell, value = link.column("cell_id"), link.column(role)
                edges = self.session.execute(f"SELECT * FROM {link.name}")
                return map({row[cell]: row[value] for row in edges}.get, ids)
            return repeat(_CELL_DEFAULTS.get(role))

        return list(map(CellRecord, *(field(role) for role in CellRecord._fields)))

    @staticmethod
    def _entry_node_id(cells: List[CellRecord]) -> int:
        """The entry node of a registry without ``entry_node_id``: the
        parent of the root cells."""
        for record in cells:
            if record.is_root_cell:
                return record.parent_node_id
        raise MappingError("stored cube has no root cells")

    # -- removal ---------------------------------------------------------
    def delete_cube_rows(self, schema_id: int) -> int:
        """Remove one stored cube's node/cell/link/dimension rows
        (compaction); returns the count removed.

        The registry row is kept as an allocation watermark so
        ``_next_ids`` never reissues the reclaimed range.
        """
        mapping, session = self.mapping, self.session
        owned = [t for t in (mapping.nodes, mapping.cells, mapping.dimensions) if t is not None]
        reclaimed = 0
        if mapping.backend.deletes_by_key:
            for table in owned:
                key = table.columns[0].name
                rows = list(self._select(table, schema_id, key))
                delete = cached_statement(self, f"DELETE FROM {table.name} WHERE {key} = ?")
                for row in rows:
                    session.execute_prepared(delete, (row[key],))
                reclaimed += len(rows)
        else:
            for link in mapping.links:
                # Link rows carry no cube id: delete them per owning id,
                # by the key prefix (the containing node, or the cell).
                prefix = link.columns[0]
                owner = mapping.nodes if prefix.role == "parent_node_id" else mapping.cells
                key = owner.columns[0].name
                delete = cached_statement(self, f"DELETE FROM {link.name} WHERE {prefix.name} = ?")
                for row in list(self._select(owner, schema_id, key)):
                    reclaimed += session.execute_prepared(delete, (row[key],)).rowcount
            for table in owned:
                reclaimed += session.execute(
                    f"DELETE FROM {table.name} WHERE {table.column('schema_id')} = ?",
                    (schema_id,),
                ).rowcount
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


def _rows(table: Table, records, schema_id: int):
    """``table``'s INSERT rows from transformation records: one iterator
    per declared column, zipped.  A ``schema_id`` column holds the stored
    cube's id; a ``set<...>`` column holds its id tuple as a set."""
    columns = []
    for column in table.columns:
        if column.role == "schema_id":
            columns.append(repeat(schema_id))
            continue
        values = map(attrgetter(column.role), records)
        columns.append(map(set, values) if column.type.startswith("set<") else values)
    return zip(*columns)


def _node_records(node_ids, cells: List[CellRecord], levels: Dict[int, int],
                  entry_node_id: int) -> List[NodeRecord]:
    """Node records for ``node_ids``, their cell relations regrouped from
    the cells' parent and pointer ids."""
    children: Dict[int, List[int]] = {}
    parents: Dict[int, List[int]] = {}
    for record in cells:
        children.setdefault(record.parent_node_id, []).append(record.cell_id)
        if record.pointer_node_id is not None:
            parents.setdefault(record.pointer_node_id, []).append(record.cell_id)
    return [
        NodeRecord(
            node_id=node_id,
            level=levels.get(node_id, 0),
            is_root=node_id == entry_node_id,
            children_cell_ids=tuple(children.get(node_id, ())),
            parent_cell_ids=tuple(parents.get(node_id, ())),
        )
        for node_id in node_ids
    ]


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


def schema_from_rows(rows: List[Dict[str, object]]) -> CubeSchema:
    """Rebuild a :class:`CubeSchema` from dimension-registry rows."""
    if not rows:
        raise MappingError("no dimension metadata stored for this schema id")
    ordered = sorted(rows, key=lambda row: row["position"])
    from repro.core.aggregators import Aggregator

    first = ordered[0]
    dimensions = [
        Dimension(row["name"], dimension_table=row["dimension_table"]) for row in ordered
    ]
    return CubeSchema(
        first["schema_name"],
        dimensions,
        measure=first["measure"],
        aggregator=Aggregator.get(first["aggregator"]),
    )
