"""SQL abstract syntax tree (relational engine).

The statements both languages share (SELECT, INSERT, UPDATE, DELETE,
TRUNCATE, DROP TABLE, USE, EXPLAIN) are :mod:`repro.query.syntax` nodes, re-exported
here; this module adds SQL's column references, joins, aggregates and
DDL.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

# The nodes and the bind marker both dialects share.
from repro.query import Placeholder
from repro.query.syntax import (
    Condition,
    Delete,
    DropTable,
    Explain,
    Insert,
    Select,
    Statement,
    TableRef,
    Truncate,
    Update,
    Use,
)


class ColumnRef:
    """A possibly-qualified column reference ``[table_or_alias.]name``."""

    __slots__ = ("qualifier", "name")

    def __init__(self, qualifier: Optional[str], name: str) -> None:
        self.qualifier = qualifier
        self.name = name

    def __repr__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


class Join:
    """``JOIN source ON left = right`` (inner equi-join)."""

    __slots__ = ("source", "left", "right")

    def __init__(self, source: TableRef, left: ColumnRef, right: ColumnRef) -> None:
        self.source = source
        self.left = left
        self.right = right


class Aggregate:
    """An aggregate select item: ``FUNC(column)`` or ``COUNT(*)``."""

    __slots__ = ("func", "column", "label")

    def __init__(self, func: str, column: Optional[ColumnRef]) -> None:
        self.func = func                    # count | sum | min | max | avg
        self.column = column                # None only for COUNT(*)
        self.label = "count" if column is None else f"{func}({column})"

    def __repr__(self) -> str:
        return self.label


class CreateDatabase(Statement):
    __slots__ = ("name", "if_not_exists")

    def __init__(self, name: str, if_not_exists: bool) -> None:
        self.name = name
        self.if_not_exists = if_not_exists


class CreateTable(Statement):
    __slots__ = ("source", "columns", "primary_key", "if_not_exists")

    def __init__(
        self,
        source: TableRef,
        columns: List[Tuple[str, str, bool]],   # (name, type_text, not_null)
        primary_key: List[str],
        if_not_exists: bool,
    ) -> None:
        self.source = source
        self.columns = columns
        self.primary_key = primary_key
        self.if_not_exists = if_not_exists


class CreateIndex(Statement):
    __slots__ = ("name", "source", "column")

    def __init__(self, name: str, source: TableRef, column: str) -> None:
        self.name = name
        self.source = source
        self.column = column


class DropDatabase(Statement):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name
