"""The NoSQL-Min schema (paper Table 3).

Two column families only: ``dwarf_cube`` (the registry) and
``dwarf_cell``.  DWARF nodes are not stored — cells carry their parent
and pointer node ids and nodes are rebuilt at load time.  The price
(paper §5): two secondary indexes on ``parentNodeId`` and
``childNodeId``, which inflate both insertion time (Table 5, worst
overall) and size (Table 4).
"""

from __future__ import annotations

from typing import Optional

from repro.mapping.base import CubeMapper
from repro.mapping.schema_mapping import (
    CQL,
    PARENT,
    Column,
    SchemaMapping,
    Table,
    dimension_table,
    epoch_table,
    registry_table,
)
from repro.nosqldb.engine import NoSQLEngine

DEFAULT_KEYSPACE = "dwarf_min_warehouse"

NOSQL_MIN = SchemaMapping(
    name="NoSQL-Min",
    backend=CQL,
    namespace=DEFAULT_KEYSPACE,
    relation=PARENT,
    # Table 3 stores no entry_node_id: the entry is the root cells' parent.
    registry=registry_table("dwarf_cube", CQL, dwarf=False),
    # The node-less design forces both secondary indexes (paper §5.1).
    cells=Table("dwarf_cell", (
        Column("id", "int", "cell_id"),
        Column("item", "int", "measure"),
        Column("name", "text", "key_text"),
        Column("leaf", "boolean", "is_leaf"),
        Column("root", "boolean", "is_root_cell"),
        Column("cubeid", "int", "schema_id"),
        Column("parentNodeId", "int", "parent_node_id"),
        Column("childNodeId", "int", "pointer_node_id"),
    ), indexes=("parentNodeId", "childNodeId")),
    dimensions=dimension_table("dwarf_dimension", CQL),
    epochs=epoch_table("dwarf_epoch", CQL),
)


class NoSQLMinMapper(CubeMapper):
    """Node-less NoSQL schema with the two mandatory secondary indexes."""

    name = NOSQL_MIN.name
    mapping = NOSQL_MIN

    def __init__(self, engine: Optional[NoSQLEngine] = None, keyspace: str = DEFAULT_KEYSPACE) -> None:
        super().__init__(engine or NoSQLEngine(), keyspace)
        self.keyspace_name = keyspace
