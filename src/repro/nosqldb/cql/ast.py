"""CQL abstract syntax tree.

Plain ``__slots__`` value classes; the executor dispatches on the
statement class.  The statements both languages share (SELECT, INSERT,
UPDATE, DELETE, TRUNCATE, DROP TABLE, USE, EXPLAIN) are :mod:`repro.query.syntax`
nodes, re-exported here with the bind-marker and collection-literal
nodes; this module adds CQL's DDL and logged batches.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.query import Placeholder, SetLiteral
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


class CreateKeyspace(Statement):
    __slots__ = ("name", "if_not_exists", "durable_writes")

    def __init__(self, name: str, if_not_exists: bool, durable_writes: bool) -> None:
        self.name = name
        self.if_not_exists = if_not_exists
        self.durable_writes = durable_writes


class CreateTable(Statement):
    __slots__ = ("source", "columns", "primary_key", "if_not_exists", "compression")

    def __init__(
        self,
        source: TableRef,
        columns: List[Tuple[str, str]],
        primary_key: str,
        if_not_exists: bool,
        compression: bool,
    ) -> None:
        self.source = source
        self.columns = columns          # [(name, type_text)]
        self.primary_key = primary_key
        self.if_not_exists = if_not_exists
        self.compression = compression


class CreateIndex(Statement):
    __slots__ = ("name", "source", "column", "if_not_exists")

    def __init__(
        self, name: Optional[str], source: TableRef, column: str, if_not_exists: bool
    ) -> None:
        self.name = name
        self.source = source
        self.column = column
        self.if_not_exists = if_not_exists


class DropKeyspace(Statement):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Batch(Statement):
    """``BEGIN BATCH <mutations...> APPLY BATCH`` (logged batch)."""

    __slots__ = ("statements",)

    def __init__(self, statements: List[Statement]) -> None:
        self.statements = statements
