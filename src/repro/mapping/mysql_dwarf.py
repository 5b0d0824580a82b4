"""The MySQL-DWARF mapper (paper Fig. 4).

The relational schema "most accurately describes a dwarf structure in a
relational database": NODE and CELL entity tables plus NODE_CHILDREN and
CELL_CHILDREN link tables, because nodes contain many cells and many
cells can point to the same node — multiple inheritance that an RDBMS
can only express through join tables.  Every node↔cell relationship
becomes its own indexed row, which is exactly why this schema is the
largest and among the slowest in Tables 4–5.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

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
from repro.sqldb.engine import SQLEngine

DEFAULT_DATABASE = "dwarf_mysql"

_DDL = [
    """
    CREATE TABLE IF NOT EXISTS DWARF_SCHEMA (
      id INT PRIMARY KEY,
      node_count INT,
      cell_count INT,
      size_as_mb INT,
      size_as_bytes INT,
      entry_node_id INT,
      is_cube BOOLEAN
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS NODE (
      id INT PRIMARY KEY,
      root BOOLEAN NOT NULL,
      schema_id INT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS CELL (
      id INT PRIMARY KEY,
      cell_key VARCHAR(128),
      measure INT,
      leaf BOOLEAN NOT NULL,
      schema_id INT NOT NULL,
      dimension_table_name VARCHAR(64)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS NODE_CHILDREN (
      node_id INT,
      cell_id INT,
      PRIMARY KEY (node_id, cell_id)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS CELL_CHILDREN (
      cell_id INT,
      node_id INT,
      PRIMARY KEY (cell_id, node_id)
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


class MySQLDwarfMapper(CubeMapper):
    """Fully relational DWARF schema with explicit link tables."""

    name = "MySQL-DWARF"
    registry_table = "DWARF_SCHEMA"
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
            "schema": self.session.prepare(
                "INSERT INTO DWARF_SCHEMA (id, node_count, cell_count, size_as_mb, "
                "entry_node_id, is_cube) VALUES (?, ?, ?, ?, ?, ?)"
            ),
            "node": self.session.prepare(
                "INSERT INTO NODE (id, root, schema_id) VALUES (?, ?, ?)"
            ),
            "cell": self.session.prepare(
                "INSERT INTO CELL (id, cell_key, measure, leaf, schema_id, "
                "dimension_table_name) VALUES (?, ?, ?, ?, ?, ?)"
            ),
            "node_child": self.session.prepare(
                "INSERT INTO NODE_CHILDREN (node_id, cell_id) VALUES (?, ?)"
            ),
            "cell_child": self.session.prepare(
                "INSERT INTO CELL_CHILDREN (cell_id, node_id) VALUES (?, ?)"
            ),
            "dimension": self.session.prepare(
                "INSERT INTO DWARF_DIMENSION (id, schema_id, position, name, "
                "dimension_table, schema_name, measure, aggregator) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
            ),
        }

    def _next_ids(self) -> Dict[str, int]:
        rows = self.session.execute("SELECT * FROM DWARF_SCHEMA")
        schema_id = 1
        node_id = 1
        cell_id = 1
        for row in rows:
            schema_id = max(schema_id, row["id"] + 1)
            node_id += row["node_count"]
            cell_id += row["cell_count"]
        return {"schema": schema_id, "node": node_id, "cell": cell_id}

    # ------------------------------------------------------------------
    def store(
        self,
        cube: DwarfCube,
        is_cube: bool = False,
        probe_size: bool = True,
    ) -> int:
        """Persist ``cube``: one registry row, then the node, cell, link
        and dimension record batches streamed through ``execute_many``."""
        if not self._prepared:
            raise MappingError(f"{self.name}: call install() before store()")
        ids = self._next_ids()
        transformed = transform_cube(
            cube, first_node_id=ids["node"], first_cell_id=ids["cell"]
        )
        schema_id = ids["schema"]
        schema_row = (
            schema_id,
            len(transformed.nodes),
            len(transformed.cells),
            0,
            transformed.entry_node_id,
            is_cube,
        )
        node_rows = ((r.node_id, r.is_root, schema_id) for r in transformed.nodes)
        cell_rows = (
            (r.cell_id, r.key_text, r.measure, r.is_leaf, schema_id, r.dimension_table)
            for r in transformed.cells
        )
        # Every node -> contained-cell relationship is one row.
        node_child_rows = (
            (node.node_id, cell_id)
            for node in transformed.nodes
            for cell_id in node.children_cell_ids
        )
        # Every cell -> pointed-node relationship is one row.
        cell_child_rows = (
            (r.cell_id, r.pointer_node_id)
            for r in transformed.cells
            if r.pointer_node_id is not None
        )
        dimension_rows = (
            (
                row["id"], row["schema_id"], row["position"], row["name"],
                row["dimension_table"], row["schema_name"], row["measure"],
                row["aggregator"],
            )
            for row in schema_to_rows(cube.schema, schema_id)
        )
        self.session.execute_prepared(self._prepared["schema"], schema_row)
        self.session.execute_many(self._prepared["node"], node_rows)
        self.session.execute_many(self._prepared["cell"], cell_rows)
        self.session.execute_many(self._prepared["node_child"], node_child_rows)
        self.session.execute_many(self._prepared["cell_child"], cell_child_rows)
        self.session.execute_many(self._prepared["dimension"], dimension_rows)
        if probe_size:
            self.probe_size(schema_id)
        return schema_id

    def probe_size(self, schema_id: int) -> int:
        size_bytes = self.size_bytes()
        size_mb = self._size_as_mb(size_bytes)
        self.session.execute(
            "UPDATE DWARF_SCHEMA SET size_as_mb = ?, size_as_bytes = ? WHERE id = ?",
            (size_mb, size_bytes, schema_id),
        )
        return size_mb

    # ------------------------------------------------------------------
    def info(self, schema_id: int) -> StoredSchemaInfo:
        row = self.session.execute(
            "SELECT * FROM DWARF_SCHEMA WHERE id = ?", (schema_id,)
        ).one()
        if row is None:
            raise MappingError(f"no stored schema with id {schema_id}")
        return StoredSchemaInfo(
            schema_id=row["id"],
            node_count=row["node_count"],
            cell_count=row["cell_count"],
            size_as_mb=row["size_as_mb"],
            entry_node_id=row["entry_node_id"],
            is_cube=row["is_cube"],
            size_as_bytes=row["size_as_bytes"],
        )

    def load(self, schema_id: int, schema: Optional[CubeSchema] = None) -> DwarfCube:
        info = self.info(schema_id)
        if schema is None:
            dimension_rows = list(
                self.session.execute(
                    "SELECT * FROM DWARF_DIMENSION WHERE schema_id = ?", (schema_id,)
                )
            )
            schema = schema_from_rows(dimension_rows)

        node_rows = list(
            self.session.execute("SELECT * FROM NODE WHERE schema_id = ?", (schema_id,))
        )
        node_ids: Set[int] = {row["id"] for row in node_rows}
        cell_rows = list(
            self.session.execute("SELECT * FROM CELL WHERE schema_id = ?", (schema_id,))
        )

        # Join the link tables back onto the entities (paper §3's join on
        # unique ids) through the SQL layer.
        containment = [
            (row["node_id"], row["cell_id"])
            for row in self.session.execute("SELECT * FROM NODE_CHILDREN")
            if row["node_id"] in node_ids
        ]
        pointers = {
            row["cell_id"]: row["node_id"]
            for row in self.session.execute("SELECT * FROM CELL_CHILDREN")
            if row["node_id"] in node_ids
        }

        parent_of: Dict[int, int] = {cell_id: node_id for node_id, cell_id in containment}
        cells = [
            CellRecord(
                cell_id=row["id"],
                key_text=row["cell_key"],
                measure=row["measure"],
                parent_node_id=parent_of[row["id"]],
                pointer_node_id=pointers.get(row["id"]),
                is_leaf=row["leaf"],
                is_root_cell=False,
                dimension_table=row["dimension_table_name"],
                level=0,
            )
            for row in cell_rows
        ]
        levels = derive_levels(cells, info.entry_node_id)

        children_by_node: Dict[int, List[int]] = {}
        for node_id, cell_id in containment:
            children_by_node.setdefault(node_id, []).append(cell_id)
        parents_by_node: Dict[int, List[int]] = {}
        for cell_id, node_id in pointers.items():
            parents_by_node.setdefault(node_id, []).append(cell_id)

        nodes = [
            NodeRecord(
                node_id=row["id"],
                level=levels.get(row["id"], 0),
                is_root=row["root"],
                children_cell_ids=tuple(children_by_node.get(row["id"], ())),
                parent_cell_ids=tuple(parents_by_node.get(row["id"], ())),
            )
            for row in node_rows
        ]
        return rebuild_cube(schema, nodes, cells, info.entry_node_id)

    # ------------------------------------------------------------------
    def delete_cube_rows(self, schema_id: int) -> int:
        """Remove one stored cube's entity/link/dimension rows (compaction).

        The ``DWARF_SCHEMA`` registry row is kept as an allocation
        watermark so ``_next_ids`` never reissues the reclaimed range.
        """
        node_ids = [
            row["id"]
            for row in self.session.execute(
                "SELECT id FROM NODE WHERE schema_id = ?", (schema_id,)
            )
        ]
        cell_ids = [
            row["id"]
            for row in self.session.execute(
                "SELECT id FROM CELL WHERE schema_id = ?", (schema_id,)
            )
        ]
        reclaimed = 0
        node_child = cached_statement(
            self, "DELETE FROM NODE_CHILDREN WHERE node_id = ?"
        )
        for node_id in node_ids:
            reclaimed += self.session.execute_prepared(node_child, (node_id,)).rowcount
        cell_child = cached_statement(
            self, "DELETE FROM CELL_CHILDREN WHERE cell_id = ?"
        )
        for cell_id in cell_ids:
            reclaimed += self.session.execute_prepared(cell_child, (cell_id,)).rowcount
        for table in ("NODE", "CELL", "DWARF_DIMENSION"):
            reclaimed += self.session.execute(
                f"DELETE FROM {table} WHERE schema_id = ?", (schema_id,)
            ).rowcount
        return reclaimed

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        return self.engine.database(self.database_name).size_bytes

    def reset(self) -> None:
        database = self.engine.database(self.database_name)
        for table in (
            "DWARF_SCHEMA", "NODE", "CELL", "NODE_CHILDREN", "CELL_CHILDREN",
            "DWARF_DIMENSION", "DWARF_EPOCH",
        ):
            if database.has_table(table):
                self.session.execute(f"TRUNCATE {self.database_name}.{table}")
        database.checkpoint()
