"""The MySQL-Min schema: the join-free relational schema (paper §5).

The relational twin of NoSQL-Min: one cube registry plus one flat cell
table, no link tables, no secondary indexes — designed "to test how well
MySQL performs using a schema without joins".  Smallest on disk for the
small datasets (Table 4), at the price of node reconstruction work at
load time.
"""

from __future__ import annotations

from typing import Optional

from repro.mapping.base import CubeMapper
from repro.mapping.schema_mapping import (
    PARENT,
    SQL,
    Column,
    SchemaMapping,
    Table,
    dimension_table,
    epoch_table,
    registry_table,
)
from repro.sqldb.engine import SQLEngine

DEFAULT_DATABASE = "dwarf_mysql_min"

MYSQL_MIN = SchemaMapping(
    name="MySQL-Min",
    backend=SQL,
    namespace=DEFAULT_DATABASE,
    relation=PARENT,
    registry=registry_table("DWARF_CUBE", SQL, dwarf=False),
    cells=Table("DWARF_CELL", (
        Column("id", "INT", "cell_id"),
        Column("item", "INT", "measure"),
        Column("name", "VARCHAR(128)", "key_text"),
        Column("leaf", "BOOLEAN NOT NULL", "is_leaf"),
        Column("root", "BOOLEAN NOT NULL", "is_root_cell"),
        Column("cubeid", "INT NOT NULL", "schema_id"),
        Column("parentNodeId", "INT", "parent_node_id"),
        Column("childNodeId", "INT", "pointer_node_id"),
    )),
    dimensions=dimension_table("DWARF_DIMENSION", SQL),
    epochs=epoch_table("DWARF_EPOCH", SQL),
)


class MySQLMinMapper(CubeMapper):
    """Single flat cell table in the relational engine."""

    name = MYSQL_MIN.name
    mapping = MYSQL_MIN

    def __init__(self, engine: Optional[SQLEngine] = None, database: str = DEFAULT_DATABASE) -> None:
        super().__init__(engine or SQLEngine(), database)
        self.database_name = database
