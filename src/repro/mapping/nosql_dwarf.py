"""The NoSQL-DWARF schema: the paper's contribution (Table 1, §3–4).

Three column families model the DWARF: ``dwarf_schema`` (the registry and
traversal entry point), ``dwarf_node`` (parent/child cell-id sets — one
row per node, the relationships packed into ``set<int>`` columns) and
``dwarf_cell`` (key, measure, parent/pointer node ids, Fig. 3).  One
primary index per table, no secondary indexes.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.dwarf.cube import DwarfCube
from repro.mapping.base import CubeMapper, cube_columns
from repro.mapping.schema_mapping import (
    CQL,
    SET,
    Column,
    SchemaMapping,
    Table,
    dimension_table,
    epoch_table,
    registry_table,
)
from repro.nosqldb.engine import NoSQLEngine

DEFAULT_KEYSPACE = "dwarf_warehouse"

NOSQL_DWARF = SchemaMapping(
    name="NoSQL-DWARF",
    backend=CQL,
    namespace=DEFAULT_KEYSPACE,
    relation=SET,
    registry=registry_table("dwarf_schema", CQL, dwarf=True),
    nodes=Table("dwarf_node", (
        Column("id", "int", "node_id"),
        Column("parentIds", "set<int>", "parent_cell_ids"),
        Column("childrenIds", "set<int>", "children_cell_ids"),
        Column("root", "boolean", "is_root"),
        Column("schema_id", "int", "schema_id"),
    )),
    cells=Table("dwarf_cell", (
        Column("id", "int", "cell_id"),
        Column("key", "text", "key_text"),
        Column("measure", "int", "measure"),
        Column("parentNode", "int", "parent_node_id"),
        Column("pointerNode", "int", "pointer_node_id"),
        Column("leaf", "boolean", "is_leaf"),
        Column("schema_id", "int", "schema_id"),
        Column("dimension_table_name", "text", "dimension_table"),
    )),
    dimensions=dimension_table("dwarf_dimension", CQL),
    epochs=epoch_table("dwarf_epoch", CQL),
)


class NoSQLDwarfMapper(CubeMapper):
    """Bi-directional DWARF ⇄ columnar-NoSQL mapping (the paper's model)."""

    name = NOSQL_DWARF.name
    mapping = NOSQL_DWARF

    def __init__(
        self,
        engine: Optional[NoSQLEngine] = None,
        keyspace: str = DEFAULT_KEYSPACE,
        compression: bool = True,
    ) -> None:
        super().__init__(engine or NoSQLEngine(), keyspace)
        self.keyspace_name = keyspace
        self.compression = compression
        self.table_options = "" if compression else " WITH COMPRESSION = false"

    def statements(self, cube: DwarfCube, schema_id: int = 1) -> Iterator[str]:
        """Literal CQL INSERTs for ``cube`` (the Fig. 3 transformation).

        The bulk path uses prepared statements instead; this generator is
        the textual form used in tests and the raw-CQL ablation bench.
        """
        flat = cube_columns(cube)
        mapping = self.mapping
        yield _literal_insert(mapping.registry, self._registry_row(flat, schema_id, False))
        for table, batch in self._batches(flat, cube.schema, schema_id):
            if table is not mapping.dimensions:
                for row in batch.rows():
                    yield _literal_insert(table, row)


def _literal_insert(table: Table, row) -> str:
    names = ", ".join(column.name for column in table.written)
    return f"INSERT INTO {table.name} ({names}) VALUES ({', '.join(map(_cql, row))})"


def _cql(value) -> str:
    """One CQL literal: null, true/false, a sorted set, quoted text or a number."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, set):
        return "{" + ", ".join(str(v) for v in sorted(value)) + "}"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)
