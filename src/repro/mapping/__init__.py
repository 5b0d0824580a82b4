"""Bi-directional DWARF ⇄ storage mappers: the paper's four schemas."""

from repro.mapping.base import (
    ALL_KEY_TEXT,
    CellRecord,
    CubeColumns,
    CubeMapper,
    MappingError,
    NodeRecord,
    StoredSchemaInfo,
    TransformedCube,
    assemble_cube,
    cube_columns,
    decode_member,
    encode_member,
    rebuild_cube,
    schema_to_rows,
    transform_cube,
)
from repro.mapping.incremental import (
    CubeMaintainer,
    EpochView,
    compact_epoch,
    open_epoch,
    recover_epoch,
    resolve_epoch,
    store_delta,
)
from repro.mapping.lookup import LookupTable
from repro.mapping.mysql_dwarf import MySQLDwarfMapper
from repro.mapping.mysql_min import MySQLMinMapper
from repro.mapping.nosql_dwarf import NoSQLDwarfMapper
from repro.mapping.nosql_min import NoSQLMinMapper
from repro.mapping.registry import MAPPER_FACTORIES, all_mappers, make_mapper
from repro.mapping.dimension_tables import DimensionTableStore
from repro.mapping.stored_query import (
    analyze_strategy,
    explain_strategy,
    stored_cell_count,
    stored_point_query,
    stored_select,
)

__all__ = [
    "ALL_KEY_TEXT",
    "CellRecord",
    "CubeColumns",
    "CubeMaintainer",
    "CubeMapper",
    "DimensionTableStore",
    "EpochView",
    "LookupTable",
    "MAPPER_FACTORIES",
    "MappingError",
    "MySQLDwarfMapper",
    "MySQLMinMapper",
    "NoSQLDwarfMapper",
    "NoSQLMinMapper",
    "NodeRecord",
    "StoredSchemaInfo",
    "TransformedCube",
    "all_mappers",
    "assemble_cube",
    "compact_epoch",
    "cube_columns",
    "decode_member",
    "encode_member",
    "make_mapper",
    "open_epoch",
    "rebuild_cube",
    "recover_epoch",
    "resolve_epoch",
    "schema_to_rows",
    "store_delta",
    "analyze_strategy",
    "explain_strategy",
    "stored_cell_count",
    "stored_point_query",
    "stored_select",
    "transform_cube",
]
