"""CQL abstract syntax tree.

Plain ``__slots__`` value classes; the executor pattern-matches on the
statement class.  Literal values are stored as Python objects; ``?`` bind
markers become :class:`Placeholder` nodes resolved from the parameter
tuple at execution time.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

# The bind-marker and collection-literal nodes both dialects share.
from repro.query import Placeholder, SetLiteral


class Condition:
    """One WHERE conjunct: ``column OP value``  (OP: = < > <= >= IN)."""

    __slots__ = ("column", "op", "value")

    def __init__(self, column: str, op: str, value) -> None:
        self.column = column
        self.op = op
        self.value = value

    def __repr__(self) -> str:
        return f"{self.column} {self.op} {self.value!r}"


class TableRef:
    """``[keyspace.]table``"""

    __slots__ = ("keyspace", "table")

    def __init__(self, keyspace: Optional[str], table: str) -> None:
        self.keyspace = keyspace
        self.table = table

    def __repr__(self) -> str:
        return f"{self.keyspace}.{self.table}" if self.keyspace else self.table


class Statement:
    """Marker base class for statements."""

    __slots__ = ()


class CreateKeyspace(Statement):
    __slots__ = ("name", "if_not_exists", "durable_writes")

    def __init__(self, name: str, if_not_exists: bool, durable_writes: bool) -> None:
        self.name = name
        self.if_not_exists = if_not_exists
        self.durable_writes = durable_writes


class CreateTable(Statement):
    __slots__ = ("ref", "columns", "primary_key", "if_not_exists", "compression")

    def __init__(
        self,
        ref: TableRef,
        columns: List[Tuple[str, str]],
        primary_key: str,
        if_not_exists: bool,
        compression: bool,
    ) -> None:
        self.ref = ref
        self.columns = columns          # [(name, type_text)]
        self.primary_key = primary_key
        self.if_not_exists = if_not_exists
        self.compression = compression


class CreateIndex(Statement):
    __slots__ = ("name", "ref", "column", "if_not_exists")

    def __init__(self, name: Optional[str], ref: TableRef, column: str, if_not_exists: bool) -> None:
        self.name = name
        self.ref = ref
        self.column = column
        self.if_not_exists = if_not_exists


class DropTable(Statement):
    __slots__ = ("ref",)

    def __init__(self, ref: TableRef) -> None:
        self.ref = ref


class DropKeyspace(Statement):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Use(Statement):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Insert(Statement):
    __slots__ = ("ref", "columns", "values")

    def __init__(self, ref: TableRef, columns: List[str], values: List) -> None:
        self.ref = ref
        self.columns = columns
        self.values = values


class Select(Statement):
    __slots__ = (
        "ref", "columns", "where", "limit", "allow_filtering", "count",
        "order_by", "descending",
    )

    def __init__(
        self,
        ref: TableRef,
        columns: List[str],          # empty means *
        where: List[Condition],
        limit: Optional[int],
        allow_filtering: bool,
        count: bool,
        order_by: Optional[str] = None,
        descending: bool = False,
    ) -> None:
        self.ref = ref
        self.columns = columns
        self.where = where
        self.limit = limit
        self.allow_filtering = allow_filtering
        self.count = count
        self.order_by = order_by
        self.descending = descending


class Update(Statement):
    __slots__ = ("ref", "assignments", "where")

    def __init__(self, ref: TableRef, assignments: List[Tuple[str, object]], where: List[Condition]) -> None:
        self.ref = ref
        self.assignments = assignments
        self.where = where


class Delete(Statement):
    __slots__ = ("ref", "where")

    def __init__(self, ref: TableRef, where: List[Condition]) -> None:
        self.ref = ref
        self.where = where


class Truncate(Statement):
    __slots__ = ("ref",)

    def __init__(self, ref: TableRef) -> None:
        self.ref = ref


class Batch(Statement):
    """``BEGIN BATCH <mutations...> APPLY BATCH`` (logged batch)."""

    __slots__ = ("statements",)

    def __init__(self, statements: List[Statement]) -> None:
        self.statements = statements


class Explain(Statement):
    """``EXPLAIN [ANALYZE] SELECT ...``: report the chosen plan, one row
    per operator.

    With ``analyze`` set the statement is also *executed* and every
    operator row carries actual counters (see
    :mod:`repro.query.analyze`)."""

    __slots__ = ("select", "analyze")

    def __init__(self, select: "Select", analyze: bool = False) -> None:
        self.select = select
        self.analyze = analyze
