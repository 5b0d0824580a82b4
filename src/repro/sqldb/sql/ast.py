"""SQL abstract syntax tree (relational engine)."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.query import Placeholder  # the bind-marker node both dialects share


class ColumnRef:
    """A possibly-qualified column reference ``[table_or_alias.]name``."""

    __slots__ = ("qualifier", "name")

    def __init__(self, qualifier: Optional[str], name: str) -> None:
        self.qualifier = qualifier
        self.name = name

    def __repr__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


class Condition:
    """``column OP value`` or ``column IS [NOT] NULL`` or ``column IN (...)``."""

    __slots__ = ("column", "op", "value")

    def __init__(self, column: ColumnRef, op: str, value) -> None:
        self.column = column
        self.op = op   # = != < > <= >= IN ISNULL NOTNULL
        self.value = value

    def __repr__(self) -> str:
        return f"{self.column!r} {self.op} {self.value!r}"


class TableSource:
    """``[db.]table [AS alias]`` in a FROM/JOIN clause."""

    __slots__ = ("database", "table", "alias")

    def __init__(self, database: Optional[str], table: str, alias: Optional[str]) -> None:
        self.database = database
        self.table = table
        self.alias = alias or table

    def __repr__(self) -> str:
        base = f"{self.database}.{self.table}" if self.database else self.table
        return f"{base} AS {self.alias}" if self.alias != self.table else base


class Join:
    """``JOIN source ON left = right`` (inner equi-join)."""

    __slots__ = ("source", "left", "right")

    def __init__(self, source: TableSource, left: ColumnRef, right: ColumnRef) -> None:
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


class Statement:
    __slots__ = ()


class CreateDatabase(Statement):
    __slots__ = ("name", "if_not_exists")

    def __init__(self, name: str, if_not_exists: bool) -> None:
        self.name = name
        self.if_not_exists = if_not_exists


class CreateTable(Statement):
    __slots__ = ("source", "columns", "primary_key", "if_not_exists")

    def __init__(
        self,
        source: TableSource,
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

    def __init__(self, name: str, source: TableSource, column: str) -> None:
        self.name = name
        self.source = source
        self.column = column


class DropTable(Statement):
    __slots__ = ("source",)

    def __init__(self, source: TableSource) -> None:
        self.source = source


class DropDatabase(Statement):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Use(Statement):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Insert(Statement):
    __slots__ = ("source", "columns", "rows")

    def __init__(self, source: TableSource, columns: List[str], rows: List[List]) -> None:
        self.source = source
        self.columns = columns
        self.rows = rows      # multi-row VALUES


class Select(Statement):
    __slots__ = (
        "source", "joins", "columns", "aggregates", "group_by", "where",
        "order_by", "descending", "limit", "count",
    )

    def __init__(
        self,
        source: TableSource,
        joins: List[Join],
        columns: List[ColumnRef],        # empty means * (when no aggregates)
        where: List[Condition],
        order_by: Optional[ColumnRef],
        descending: bool,
        limit: Optional[int],
        count: bool,
        aggregates: Optional[List[Aggregate]] = None,
        group_by: Optional[List[ColumnRef]] = None,
    ) -> None:
        self.source = source
        self.joins = joins
        self.columns = columns
        self.aggregates = aggregates or []
        self.group_by = group_by or []
        self.where = where
        self.order_by = order_by
        self.descending = descending
        self.limit = limit
        self.count = count


class Update(Statement):
    __slots__ = ("source", "assignments", "where")

    def __init__(
        self,
        source: TableSource,
        assignments: List[Tuple[str, object]],
        where: List[Condition],
    ) -> None:
        self.source = source
        self.assignments = assignments
        self.where = where


class Delete(Statement):
    __slots__ = ("source", "where")

    def __init__(self, source: TableSource, where: List[Condition]) -> None:
        self.source = source
        self.where = where


class Truncate(Statement):
    __slots__ = ("source",)

    def __init__(self, source: TableSource) -> None:
        self.source = source


class Explain(Statement):
    """``EXPLAIN [ANALYZE] SELECT ...``: report the chosen access paths.

    With ``analyze`` set the statement is also *executed* and every
    operator row carries actual counters (see
    :mod:`repro.query.analyze`)."""

    __slots__ = ("select", "analyze")

    def __init__(self, select: "Select", analyze: bool = False) -> None:
        self.select = select
        self.analyze = analyze
