"""The NoSQL-Min mapper (paper Table 3).

Two column families only: ``dwarf_cube`` (the registry) and
``dwarf_cell``.  DWARF nodes are not stored — cells carry their parent
and pointer node ids and nodes are rebuilt at load time.  The price
(paper §5): two secondary indexes on ``parentNodeId`` and
``childNodeId``, which inflate both insertion time (Table 5, worst
overall) and size (Table 4).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.schema import CubeSchema
from repro.dwarf.cube import DwarfCube
from repro.mapping.base import (
    CellRecord,
    CubeMapper,
    MappingError,
    NodeRecord,
    StoredSchemaInfo,
    cached_statement,
    derive_levels,
    rebuild_cube,
    schema_from_rows,
    schema_to_rows,
    transform_cube,
)
from repro.nosqldb.engine import NoSQLEngine

DEFAULT_KEYSPACE = "dwarf_min_warehouse"

_CUBE_DDL = """
CREATE TABLE IF NOT EXISTS dwarf_cube (
  id int PRIMARY KEY,
  node_count int,
  cell_count int,
  size_as_mb int,
  size_as_bytes int
)
"""

_CELL_DDL = """
CREATE TABLE IF NOT EXISTS dwarf_cell (
  id int PRIMARY KEY,
  item int,
  name text,
  leaf boolean,
  root boolean,
  cubeid int,
  parentNodeId int,
  childNodeId int
)
"""

_DIMENSION_DDL = """
CREATE TABLE IF NOT EXISTS dwarf_dimension (
  id int PRIMARY KEY,
  schema_id int,
  position int,
  name text,
  dimension_table text,
  schema_name text,
  measure text,
  aggregator text
)
"""

_EPOCH_DDL = """
CREATE TABLE IF NOT EXISTS dwarf_epoch (
  id int PRIMARY KEY,
  epoch int,
  base_id int,
  delta_ids text,
  retired_ids text,
  pending_id int
)
"""


class NoSQLMinMapper(CubeMapper):
    """Node-less NoSQL schema with the two mandatory secondary indexes."""

    name = "NoSQL-Min"
    registry_table = "dwarf_cube"
    dimension_table = "dwarf_dimension"
    epoch_table = "dwarf_epoch"

    def __init__(self, engine: Optional[NoSQLEngine] = None, keyspace: str = DEFAULT_KEYSPACE) -> None:
        self.engine = engine or NoSQLEngine()
        self.keyspace_name = keyspace
        self.session = self.engine.connect()
        self._prepared: Dict[str, object] = {}
        # Table 3 stores no entry_node_id, so finding a cube's root takes
        # a filtered scan; clients cache it per cube id after first use.
        self._entry_cache: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def install(self) -> None:
        self.session.execute(f"CREATE KEYSPACE IF NOT EXISTS {self.keyspace_name}")
        self.session.execute(f"USE {self.keyspace_name}")
        for ddl in (_CUBE_DDL, _CELL_DDL, _DIMENSION_DDL, _EPOCH_DDL):
            self.session.execute(ddl)
        # The node-less design forces both secondary indexes (paper §5.1).
        self.session.execute("CREATE INDEX IF NOT EXISTS ON dwarf_cell (parentNodeId)")
        self.session.execute("CREATE INDEX IF NOT EXISTS ON dwarf_cell (childNodeId)")
        self._prepared = {
            "cube": self.session.prepare(
                "INSERT INTO dwarf_cube (id, node_count, cell_count, size_as_mb) "
                "VALUES (?, ?, ?, ?)"
            ),
            "cell": self.session.prepare(
                "INSERT INTO dwarf_cell (id, item, name, leaf, root, cubeid, "
                "parentNodeId, childNodeId) VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
            ),
            "dimension": self.session.prepare(
                "INSERT INTO dwarf_dimension (id, schema_id, position, name, "
                "dimension_table, schema_name, measure, aggregator) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
            ),
        }

    def _next_ids(self) -> Dict[str, int]:
        result = self.session.execute("SELECT * FROM dwarf_cube")
        cube_id = 1
        node_id = 1
        cell_id = 1
        for row in result:
            cube_id = max(cube_id, row["id"] + 1)
            node_id += row["node_count"]
            cell_id += row["cell_count"]
        return {"cube": cube_id, "node": node_id, "cell": cell_id}

    # ------------------------------------------------------------------
    def store(
        self,
        cube: DwarfCube,
        is_cube: bool = False,
        probe_size: bool = True,
    ) -> int:
        """Persist ``cube``: one registry row, then the cell and dimension
        record batches streamed through ``execute_many``."""
        if not self._prepared:
            raise MappingError(f"{self.name}: call install() before store()")
        ids = self._next_ids()
        transformed = transform_cube(
            cube, first_node_id=ids["node"], first_cell_id=ids["cell"]
        )
        cube_id = ids["cube"]
        cube_row = (cube_id, len(transformed.nodes), len(transformed.cells), 0)
        cell_rows = (
            (
                record.cell_id,
                record.measure,
                record.key_text,
                record.is_leaf,
                record.is_root_cell,
                cube_id,
                record.parent_node_id,
                record.pointer_node_id,
            )
            for record in transformed.cells
        )
        dimension_rows = (
            (
                row["id"],
                row["schema_id"],
                row["position"],
                row["name"],
                row["dimension_table"],
                row["schema_name"],
                row["measure"],
                row["aggregator"],
            )
            for row in schema_to_rows(cube.schema, cube_id)
        )
        self.session.execute_prepared(self._prepared["cube"], cube_row)
        self.session.execute_many(self._prepared["cell"], cell_rows)
        self.session.execute_many(self._prepared["dimension"], dimension_rows)
        self._entry_cache[cube_id] = transformed.entry_node_id
        if probe_size:
            self.probe_size(cube_id)
        return cube_id

    def probe_size(self, cube_id: int) -> int:
        size_bytes = self.size_bytes()
        size_mb = self._size_as_mb(size_bytes)
        self.session.execute(
            "UPDATE dwarf_cube SET size_as_mb = ?, size_as_bytes = ? WHERE id = ?",
            (size_mb, size_bytes, cube_id),
        )
        return size_mb

    # ------------------------------------------------------------------
    def info(self, schema_id: int) -> StoredSchemaInfo:
        row = self.session.execute(
            "SELECT * FROM dwarf_cube WHERE id = ?", (schema_id,)
        ).one()
        if row is None:
            raise MappingError(f"no stored cube with id {schema_id}")
        return StoredSchemaInfo(
            schema_id=row["id"],
            node_count=row["node_count"],
            cell_count=row["cell_count"],
            size_as_mb=row["size_as_mb"],
            entry_node_id=None,
            is_cube=False,
            size_as_bytes=row["size_as_bytes"],
        )

    def load(self, schema_id: int, schema: Optional[CubeSchema] = None) -> DwarfCube:
        self.info(schema_id)  # validates existence
        if schema is None:
            dimension_rows = list(
                self.session.execute(
                    "SELECT * FROM dwarf_dimension WHERE schema_id = ? ALLOW FILTERING",
                    (schema_id,),
                )
            )
            schema = schema_from_rows(dimension_rows)
        cell_rows = list(
            self.session.execute(
                "SELECT * FROM dwarf_cell WHERE cubeid = ? ALLOW FILTERING", (schema_id,)
            )
        )
        cells = [
            CellRecord(
                cell_id=row["id"],
                key_text=row["name"],
                measure=row["item"],
                parent_node_id=row["parentNodeId"],
                pointer_node_id=row["childNodeId"],
                is_leaf=row["leaf"],
                is_root_cell=row["root"],
                dimension_table=None,
                level=0,
            )
            for row in cell_rows
        ]
        entry_node_id = self._entry_node_id(cells)
        levels = derive_levels(cells, entry_node_id)
        nodes = self._rebuild_node_records(cells, levels, entry_node_id)
        return rebuild_cube(schema, nodes, cells, entry_node_id)

    @staticmethod
    def _entry_node_id(cells: List[CellRecord]) -> int:
        for record in cells:
            if record.is_root_cell:
                return record.parent_node_id
        raise MappingError("stored cube has no root cells")

    @staticmethod
    def _rebuild_node_records(
        cells: List[CellRecord],
        levels: Dict[int, int],
        entry_node_id: int,
    ) -> List[NodeRecord]:
        """Rebuild the DWARF-node construct the schema chose not to store."""
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
                children_cell_ids=tuple(cell_ids),
                parent_cell_ids=tuple(parents.get(node_id, ())),
            )
            for node_id, cell_ids in children.items()
        ]

    # ------------------------------------------------------------------
    def delete_cube_rows(self, cube_id: int) -> int:
        """Remove one stored cube's cell/dimension rows (compaction).

        The ``dwarf_cube`` registry row is kept as an allocation
        watermark so ``_next_ids`` never reissues the reclaimed range.
        """
        reclaimed = 0
        for table, column in (("dwarf_cell", "cubeid"), ("dwarf_dimension", "schema_id")):
            rows = list(
                self.session.execute(
                    f"SELECT id FROM {table} WHERE {column} = ? ALLOW FILTERING",
                    (cube_id,),
                )
            )
            delete = cached_statement(self, f"DELETE FROM {table} WHERE id = ?")
            for row in rows:
                self.session.execute_prepared(delete, (row["id"],))
            reclaimed += len(rows)
        self._entry_cache.pop(cube_id, None)
        return reclaimed

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        return self.engine.keyspace(self.keyspace_name).size_bytes

    def reset(self) -> None:
        keyspace = self.engine.keyspace(self.keyspace_name)
        for table in ("dwarf_cube", "dwarf_cell", "dwarf_dimension", "dwarf_epoch"):
            if keyspace.has_table(table):
                self.session.execute(f"TRUNCATE {self.keyspace_name}.{table}")
        keyspace.clear_commit_log()
        self._entry_cache.clear()
