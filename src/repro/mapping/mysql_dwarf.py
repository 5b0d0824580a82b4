"""The MySQL-DWARF schema (paper Fig. 4).

The relational schema "most accurately describes a dwarf structure in a
relational database": NODE and CELL entity tables plus NODE_CHILDREN and
CELL_CHILDREN link tables, because nodes contain many cells and many
cells can point to the same node — multiple inheritance that an RDBMS
can only express through join tables.  Every node↔cell relationship
becomes its own indexed row, which is exactly why this schema is the
largest and among the slowest in Tables 4–5.
"""

from __future__ import annotations

from typing import Optional

from repro.mapping.base import CubeMapper
from repro.mapping.schema_mapping import (
    LINK,
    SQL,
    Column,
    SchemaMapping,
    Table,
    dimension_table,
    epoch_table,
    registry_table,
)
from repro.sqldb.engine import SQLEngine

DEFAULT_DATABASE = "dwarf_mysql"

MYSQL_DWARF = SchemaMapping(
    name="MySQL-DWARF",
    backend=SQL,
    namespace=DEFAULT_DATABASE,
    relation=LINK,
    registry=registry_table("DWARF_SCHEMA", SQL, dwarf=True),
    nodes=Table("NODE", (
        Column("id", "INT", "node_id"),
        Column("root", "BOOLEAN NOT NULL", "is_root"),
        Column("schema_id", "INT NOT NULL", "schema_id"),
    )),
    cells=Table("CELL", (
        Column("id", "INT", "cell_id"),
        Column("cell_key", "VARCHAR(128)", "key_text"),
        Column("measure", "INT", "measure"),
        Column("leaf", "BOOLEAN NOT NULL", "is_leaf"),
        Column("schema_id", "INT NOT NULL", "schema_id"),
        Column("dimension_table_name", "VARCHAR(64)", "dimension_table"),
    )),
    links=(
        # Every node -> contained-cell relationship is one row ...
        Table("NODE_CHILDREN", (
            Column("node_id", "INT", "parent_node_id"),
            Column("cell_id", "INT", "cell_id"),
        ), key=("node_id", "cell_id")),
        # ... and so is every cell -> pointed-node relationship.
        Table("CELL_CHILDREN", (
            Column("cell_id", "INT", "cell_id"),
            Column("node_id", "INT", "pointer_node_id"),
        ), key=("cell_id", "node_id")),
    ),
    dimensions=dimension_table("DWARF_DIMENSION", SQL),
    epochs=epoch_table("DWARF_EPOCH", SQL),
)


class MySQLDwarfMapper(CubeMapper):
    """Fully relational DWARF schema with explicit link tables."""

    name = MYSQL_DWARF.name
    mapping = MYSQL_DWARF

    def __init__(self, engine: Optional[SQLEngine] = None, database: str = DEFAULT_DATABASE) -> None:
        super().__init__(engine or SQLEngine(), database)
        self.database_name = database
