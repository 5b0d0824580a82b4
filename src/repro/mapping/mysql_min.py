"""The MySQL-Min mapper: the join-free relational schema (paper §5).

The relational twin of NoSQL-Min: one cube registry plus one flat cell
table, no link tables, no secondary indexes — designed "to test how well
MySQL performs using a schema without joins".  Smallest on disk for the
small datasets (Table 4), at the price of node reconstruction work at
load time.
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
    derive_levels,
    rebuild_cube,
    schema_from_rows,
    schema_to_rows,
    transform_cube,
)
from repro.sqldb.engine import SQLEngine

DEFAULT_DATABASE = "dwarf_mysql_min"

_DDL = [
    """
    CREATE TABLE IF NOT EXISTS DWARF_CUBE (
      id INT PRIMARY KEY,
      node_count INT,
      cell_count INT,
      size_as_mb INT,
      size_as_bytes INT
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS DWARF_CELL (
      id INT PRIMARY KEY,
      item INT,
      name VARCHAR(128),
      leaf BOOLEAN NOT NULL,
      root BOOLEAN NOT NULL,
      cubeid INT NOT NULL,
      parentNodeId INT,
      childNodeId INT
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS DWARF_DIMENSION (
      id INT PRIMARY KEY,
      schema_id INT,
      position INT,
      name VARCHAR(64),
      dimension_table VARCHAR(64),
      schema_name VARCHAR(64),
      measure VARCHAR(64),
      aggregator VARCHAR(16)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS DWARF_EPOCH (
      id INT PRIMARY KEY,
      epoch INT,
      base_id INT,
      delta_ids TEXT,
      retired_ids TEXT,
      pending_id INT
    )
    """,
]


class MySQLMinMapper(CubeMapper):
    """Single flat cell table in the relational engine."""

    name = "MySQL-Min"
    registry_table = "DWARF_CUBE"
    dimension_table = "DWARF_DIMENSION"
    epoch_table = "DWARF_EPOCH"

    def __init__(self, engine: Optional[SQLEngine] = None, database: str = DEFAULT_DATABASE) -> None:
        self.engine = engine or SQLEngine()
        self.database_name = database
        self.session = self.engine.connect()
        self._prepared: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def install(self) -> None:
        self.session.execute(f"CREATE DATABASE IF NOT EXISTS {self.database_name}")
        self.session.execute(f"USE {self.database_name}")
        for ddl in _DDL:
            self.session.execute(ddl)
        self._prepared = {
            "cube": self.session.prepare(
                "INSERT INTO DWARF_CUBE (id, node_count, cell_count, size_as_mb) "
                "VALUES (?, ?, ?, ?)"
            ),
            "cell": self.session.prepare(
                "INSERT INTO DWARF_CELL (id, item, name, leaf, root, cubeid, "
                "parentNodeId, childNodeId) VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
            ),
            "dimension": self.session.prepare(
                "INSERT INTO DWARF_DIMENSION (id, schema_id, position, name, "
                "dimension_table, schema_name, measure, aggregator) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
            ),
        }

    def _next_ids(self) -> Dict[str, int]:
        rows = self.session.execute("SELECT * FROM DWARF_CUBE")
        cube_id = 1
        node_id = 1
        cell_id = 1
        for row in rows:
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
                r.cell_id, r.measure, r.key_text, r.is_leaf, r.is_root_cell,
                cube_id, r.parent_node_id, r.pointer_node_id,
            )
            for r in transformed.cells
        )
        dimension_rows = (
            (
                row["id"], row["schema_id"], row["position"], row["name"],
                row["dimension_table"], row["schema_name"], row["measure"],
                row["aggregator"],
            )
            for row in schema_to_rows(cube.schema, cube_id)
        )
        self.session.execute_prepared(self._prepared["cube"], cube_row)
        self.session.execute_many(self._prepared["cell"], cell_rows)
        self.session.execute_many(self._prepared["dimension"], dimension_rows)
        if probe_size:
            self.probe_size(cube_id)
        return cube_id

    def probe_size(self, cube_id: int) -> int:
        size_bytes = self.size_bytes()
        size_mb = self._size_as_mb(size_bytes)
        self.session.execute(
            "UPDATE DWARF_CUBE SET size_as_mb = ?, size_as_bytes = ? WHERE id = ?",
            (size_mb, size_bytes, cube_id),
        )
        return size_mb

    # ------------------------------------------------------------------
    def info(self, schema_id: int) -> StoredSchemaInfo:
        row = self.session.execute(
            "SELECT * FROM DWARF_CUBE WHERE id = ?", (schema_id,)
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
                    "SELECT * FROM DWARF_DIMENSION WHERE schema_id = ?", (schema_id,)
                )
            )
            schema = schema_from_rows(dimension_rows)
        cell_rows = list(
            self.session.execute("SELECT * FROM DWARF_CELL WHERE cubeid = ?", (schema_id,))
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

        The ``DWARF_CUBE`` registry row is kept as an allocation
        watermark so ``_next_ids`` never reissues the reclaimed range.
        """
        reclaimed = self.session.execute(
            "DELETE FROM DWARF_CELL WHERE cubeid = ?", (cube_id,)
        ).rowcount
        reclaimed += self.session.execute(
            "DELETE FROM DWARF_DIMENSION WHERE schema_id = ?", (cube_id,)
        ).rowcount
        return reclaimed

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        return self.engine.database(self.database_name).size_bytes

    def reset(self) -> None:
        database = self.engine.database(self.database_name)
        for table in ("DWARF_CUBE", "DWARF_CELL", "DWARF_DIMENSION", "DWARF_EPOCH"):
            if database.has_table(table):
                self.session.execute(f"TRUNCATE {self.database_name}.{table}")
        database.checkpoint()
