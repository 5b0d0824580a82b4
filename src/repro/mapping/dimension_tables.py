"""Dimension tables: member attributes referenced from DWARF cells.

Paper §4: "if a dimension table is specified in the schema definition,
the ``dimension_table_name`` is also updated to include the name of the
dimension table which contains additional information about the DWARF
Cell."  The paper stores the *name*; this module stores the tables
themselves, so a query can follow a cell's ``dimension_table_name`` to
the member's attributes (a station's coordinates, a car park's
capacity, ...).

One column family per dimension table::

    dim_<name> (member text PRIMARY KEY, attr1 ..., attr2 ..., ...)

with attribute column types inferred from the first row.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.mapping.base import MappingError, encode_member
from repro.nosqldb.errors import InvalidRequest


def _cql_type_of(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "bigint"
    if isinstance(value, float):
        return "double"
    if isinstance(value, str):
        return "text"
    raise MappingError(f"unsupported dimension attribute type: {type(value).__name__}")


class DimensionTableStore:
    """Stores and queries dimension tables in a NoSQL-DWARF warehouse.

    Wraps a :class:`~repro.mapping.nosql_dwarf.NoSQLDwarfMapper`'s
    keyspace; the cube rows and the dimension tables live side by side,
    as the paper's schema implies.
    """

    def __init__(self, mapper) -> None:
        self.mapper = mapper
        self.session = mapper.session
        self._columns: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def table_name(dimension_table: str) -> str:
        return f"dim_{dimension_table.lower()}"

    def store(
        self,
        dimension_table: str,
        rows: Mapping[object, Mapping[str, object]],
    ) -> int:
        """Create (if needed) and fill one dimension table.

        ``rows`` maps each dimension member to its attribute dict; all
        rows must share the same attribute names.  Returns the number of
        members stored.
        """
        if not rows:
            raise MappingError(f"dimension table {dimension_table!r} needs rows")
        items = list(rows.items())
        first_attrs = items[0][1]
        attr_names = sorted(first_attrs)
        if not attr_names:
            raise MappingError(f"dimension table {dimension_table!r} has no attributes")
        for member, attrs in items:
            if sorted(attrs) != attr_names:
                raise MappingError(
                    f"member {member!r} has attributes {sorted(attrs)}, "
                    f"expected {attr_names}"
                )

        name = self.table_name(dimension_table)
        column_ddl = ", ".join(
            f"{attr} {_cql_type_of(first_attrs[attr])}" for attr in attr_names
        )
        self.session.execute(
            f"CREATE TABLE IF NOT EXISTS {self.mapper.keyspace_name}.{name} "
            f"(member text PRIMARY KEY, {column_ddl})"
        )
        insert = self.session.prepare(
            f"INSERT INTO {self.mapper.keyspace_name}.{name} "
            f"(member, {', '.join(attr_names)}) "
            f"VALUES (?{', ?' * len(attr_names)})"
        )
        self.session.execute_many(
            insert,
            (
                (encode_member(member),) + tuple(attrs[a] for a in attr_names)
                for member, attrs in items
            ),
        )
        self._columns[name] = attr_names
        return len(items)

    # ------------------------------------------------------------------
    def attributes(self, dimension_table: str, member) -> Optional[Dict[str, object]]:
        """The attribute dict of ``member``, or None when absent."""
        try:
            return self._member_attributes(dimension_table, encode_member(member))
        except InvalidRequest:
            return None

    def describe_cell(self, schema_id: int, cell_id: int) -> Optional[Dict[str, object]]:
        """Follow a stored cell's ``dimension_table_name`` to its attributes.

        The paper's join: read the cell row, take its key and dimension
        table name, and look the member up.
        """
        cell = self.session.execute(
            f"SELECT * FROM {self.mapper.keyspace_name}.dwarf_cell WHERE id = ?",
            (cell_id,),
        ).one()
        if cell is None or cell["schema_id"] != schema_id:
            return None
        table = cell["dimension_table_name"]
        if table is None:
            return None
        return self._member_attributes(table, cell["key"])

    def _member_attributes(self, dimension_table: str, key_text: str):
        row = self.session.execute(
            f"SELECT * FROM {self.mapper.keyspace_name}.{self.table_name(dimension_table)} "
            "WHERE member = ?",
            (key_text,),
        ).one()
        if row is None:
            return None
        return {k: v for k, v in row.items() if k != "member"}
