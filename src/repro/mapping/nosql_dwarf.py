"""The NoSQL-DWARF mapper: the paper's contribution (Table 1, §3–4).

Three column families model the DWARF: ``dwarf_schema`` (the registry and
traversal entry point), ``dwarf_node`` (parent/child cell-id sets — one
row per node, the relationships packed into ``set<int>`` columns) and
``dwarf_cell`` (key, measure, parent/pointer node ids, Fig. 3).  One
primary index per table, no secondary indexes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

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

DEFAULT_KEYSPACE = "dwarf_warehouse"

_SCHEMA_DDL = """
CREATE TABLE IF NOT EXISTS dwarf_schema (
  id int PRIMARY KEY,
  node_count int,
  cell_count int,
  size_as_mb int,
  size_as_bytes int,
  entry_node_id int,
  is_cube boolean
)
"""

_NODE_DDL = """
CREATE TABLE IF NOT EXISTS dwarf_node (
  id int PRIMARY KEY,
  parentIds set<int>,
  childrenIds set<int>,
  root boolean,
  schema_id int
)
"""

_CELL_DDL = """
CREATE TABLE IF NOT EXISTS dwarf_cell (
  id int PRIMARY KEY,
  key text,
  measure int,
  parentNode int,
  pointerNode int,
  leaf boolean,
  schema_id int,
  dimension_table_name text
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


class NoSQLDwarfMapper(CubeMapper):
    """Bi-directional DWARF ⇄ columnar-NoSQL mapping (the paper's model)."""

    name = "NoSQL-DWARF"
    registry_table = "dwarf_schema"
    dimension_table = "dwarf_dimension"
    epoch_table = "dwarf_epoch"

    def __init__(
        self,
        engine: Optional[NoSQLEngine] = None,
        keyspace: str = DEFAULT_KEYSPACE,
        compression: bool = True,
    ) -> None:
        self.engine = engine or NoSQLEngine()
        self.keyspace_name = keyspace
        self.compression = compression
        self.session = self.engine.connect()
        self._prepared: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def install(self) -> None:
        self.session.execute(f"CREATE KEYSPACE IF NOT EXISTS {self.keyspace_name}")
        self.session.execute(f"USE {self.keyspace_name}")
        suffix = "" if self.compression else " WITH COMPRESSION = false"
        for ddl in (_SCHEMA_DDL, _NODE_DDL, _CELL_DDL, _DIMENSION_DDL, _EPOCH_DDL):
            self.session.execute(ddl.strip() + suffix)
        self._prepared = {
            "schema": self.session.prepare(
                "INSERT INTO dwarf_schema (id, node_count, cell_count, size_as_mb, "
                "entry_node_id, is_cube) VALUES (?, ?, ?, ?, ?, ?)"
            ),
            "node": self.session.prepare(
                "INSERT INTO dwarf_node (id, parentIds, childrenIds, root, schema_id) "
                "VALUES (?, ?, ?, ?, ?)"
            ),
            "cell": self.session.prepare(
                "INSERT INTO dwarf_cell (id, key, measure, parentNode, pointerNode, "
                "leaf, schema_id, dimension_table_name) VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
            ),
            "dimension": self.session.prepare(
                "INSERT INTO dwarf_dimension (id, schema_id, position, name, "
                "dimension_table, schema_name, measure, aggregator) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
            ),
        }

    # ------------------------------------------------------------------
    def _next_ids(self) -> Dict[str, int]:
        """Allocate the next schema/node/cell ids by querying the registry (§4)."""
        result = self.session.execute("SELECT * FROM dwarf_schema")
        schema_id = 1
        node_id = 1
        cell_id = 1
        for row in result:
            schema_id = max(schema_id, row["id"] + 1)
            node_id += row["node_count"]
            cell_id += row["cell_count"]
        return {"schema": schema_id, "node": node_id, "cell": cell_id}

    def store(
        self,
        cube: DwarfCube,
        is_cube: bool = False,
        probe_size: bool = True,
    ) -> int:
        """Persist ``cube``: one registry row, then the node, cell and
        dimension record batches streamed through ``execute_many``."""
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
        node_rows = (
            (
                record.node_id,
                set(record.parent_cell_ids),
                set(record.children_cell_ids),
                record.is_root,
                schema_id,
            )
            for record in transformed.nodes
        )
        cell_rows = (
            (
                record.cell_id,
                record.key_text,
                record.measure,
                record.parent_node_id,
                record.pointer_node_id,
                record.is_leaf,
                schema_id,
                record.dimension_table,
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
            for row in schema_to_rows(cube.schema, schema_id)
        )
        self.session.execute_prepared(self._prepared["schema"], schema_row)
        self.session.execute_many(self._prepared["node"], node_rows)
        self.session.execute_many(self._prepared["cell"], cell_rows)
        self.session.execute_many(self._prepared["dimension"], dimension_rows)
        if probe_size:
            self.probe_size(schema_id)
        return schema_id

    def probe_size(self, schema_id: int) -> int:
        """Measure the store and write ``size_as_mb`` back (paper §4).

        Also records the exact byte count: sub-megabyte cubes at reduced
        ``REPRO_SCALE`` floor to 0 MB, and bench reporting needs a
        non-degenerate size column.
        """
        size_bytes = self.size_bytes()
        size_mb = self._size_as_mb(size_bytes)
        self.session.execute(
            "UPDATE dwarf_schema SET size_as_mb = ?, size_as_bytes = ? WHERE id = ?",
            (size_mb, size_bytes, schema_id),
        )
        return size_mb

    # ------------------------------------------------------------------
    def statements(self, cube: DwarfCube, schema_id: int = 1) -> Iterator[str]:
        """Literal CQL INSERTs for ``cube`` (the Fig. 3 transformation).

        The bulk path uses prepared statements instead; this generator is
        the textual form used in tests and the raw-CQL ablation bench.
        """
        transformed = transform_cube(cube)
        yield (
            "INSERT INTO dwarf_schema (id, node_count, cell_count, size_as_mb, "
            f"entry_node_id, is_cube) VALUES ({schema_id}, {len(transformed.nodes)}, "
            f"{len(transformed.cells)}, 0, {transformed.entry_node_id}, false)"
        )
        for record in transformed.nodes:
            parents = _cql_set(record.parent_cell_ids)
            children = _cql_set(record.children_cell_ids)
            yield (
                "INSERT INTO dwarf_node (id, parentIds, childrenIds, root, schema_id) "
                f"VALUES ({record.node_id}, {parents}, {children}, "
                f"{_cql_bool(record.is_root)}, {schema_id})"
            )
        for record in transformed.cells:
            yield (
                "INSERT INTO dwarf_cell (id, key, measure, parentNode, pointerNode, "
                "leaf, schema_id, dimension_table_name) VALUES ("
                f"{record.cell_id}, {_cql_text(record.key_text)}, "
                f"{_cql_opt(record.measure)}, {record.parent_node_id}, "
                f"{_cql_opt(record.pointer_node_id)}, {_cql_bool(record.is_leaf)}, "
                f"{schema_id}, {_cql_text_opt(record.dimension_table)})"
            )

    # ------------------------------------------------------------------
    def info(self, schema_id: int) -> StoredSchemaInfo:
        row = self.session.execute(
            "SELECT * FROM dwarf_schema WHERE id = ?", (schema_id,)
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

    def list_schemas(self) -> List[StoredSchemaInfo]:
        rows = self.session.execute("SELECT * FROM dwarf_schema")
        return sorted(
            (
                StoredSchemaInfo(
                    r["id"], r["node_count"], r["cell_count"], r["size_as_mb"],
                    r["entry_node_id"], r["is_cube"], r["size_as_bytes"],
                )
                for r in rows
            ),
            key=lambda info: info.schema_id,
        )

    def load(self, schema_id: int, schema: Optional[CubeSchema] = None) -> DwarfCube:
        info = self.info(schema_id)
        if schema is None:
            dimension_rows = list(
                self.session.execute(
                    "SELECT * FROM dwarf_dimension WHERE schema_id = ? ALLOW FILTERING",
                    (schema_id,),
                )
            )
            schema = schema_from_rows(dimension_rows)
        cell_rows = self.session.execute(
            "SELECT * FROM dwarf_cell WHERE schema_id = ? ALLOW FILTERING", (schema_id,)
        )
        cells = [
            CellRecord(
                cell_id=row["id"],
                key_text=row["key"],
                measure=row["measure"],
                parent_node_id=row["parentNode"],
                pointer_node_id=row["pointerNode"],
                is_leaf=row["leaf"],
                is_root_cell=False,
                dimension_table=row["dimension_table_name"],
                level=0,
            )
            for row in cell_rows
        ]
        levels = derive_levels(cells, info.entry_node_id)
        node_rows = self.session.execute(
            "SELECT * FROM dwarf_node WHERE schema_id = ? ALLOW FILTERING", (schema_id,)
        )
        nodes = [
            NodeRecord(
                node_id=row["id"],
                level=levels.get(row["id"], 0),
                is_root=row["root"],
                children_cell_ids=tuple(row["childrenIds"] or ()),
                parent_cell_ids=tuple(row["parentIds"] or ()),
            )
            for row in node_rows
        ]
        return rebuild_cube(schema, nodes, cells, info.entry_node_id)

    # ------------------------------------------------------------------
    def delete_cube_rows(self, schema_id: int) -> int:
        """Remove one stored cube's node/cell/dimension rows (compaction).

        The ``dwarf_schema`` registry row is kept as an allocation
        watermark so ``_next_ids`` never reissues the reclaimed range.
        """
        reclaimed = 0
        for table in ("dwarf_node", "dwarf_cell", "dwarf_dimension"):
            rows = list(
                self.session.execute(
                    f"SELECT id FROM {table} WHERE schema_id = ? ALLOW FILTERING",
                    (schema_id,),
                )
            )
            delete = cached_statement(self, f"DELETE FROM {table} WHERE id = ?")
            for row in rows:
                self.session.execute_prepared(delete, (row["id"],))
            reclaimed += len(rows)
        return reclaimed

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        return self.engine.keyspace(self.keyspace_name).size_bytes

    def reset(self) -> None:
        keyspace = self.engine.keyspace(self.keyspace_name)
        for table in (
            "dwarf_schema", "dwarf_node", "dwarf_cell", "dwarf_dimension",
            "dwarf_epoch",
        ):
            if keyspace.has_table(table):
                self.session.execute(f"TRUNCATE {self.keyspace_name}.{table}")
        keyspace.clear_commit_log()


# ----------------------------------------------------------------------
# CQL literal formatting
# ----------------------------------------------------------------------
def _cql_text(value: str) -> str:
    escaped = value.replace("'", "''")
    return f"'{escaped}'"


def _cql_text_opt(value: Optional[str]) -> str:
    return "null" if value is None else _cql_text(value)


def _cql_opt(value: Optional[int]) -> str:
    return "null" if value is None else str(value)


def _cql_bool(value: bool) -> str:
    return "true" if value else "false"


def _cql_set(values) -> str:
    return "{" + ", ".join(str(v) for v in sorted(values)) + "}"
