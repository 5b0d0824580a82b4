"""CQL execution against a :class:`~repro.nosqldb.engine.NoSQLEngine`.

SELECTs are compiled into :mod:`repro.query` plans — the same operator
vocabulary the SQL engine uses (PointLookup / MultiGet / IndexScan /
FullScan / Filter / Sort / Limit / Aggregate) — so ``EXPLAIN SELECT``
reads identically in both dialects.  This module is the CQL *binding*
of the shared kernel: it compiles the dialect AST into the callables
the plan nodes carry and keeps all engine-specific error behaviour
(:class:`InvalidRequest`, the ALLOW FILTERING gate) on this side of the
boundary.
"""

from __future__ import annotations

from typing import List

from repro.nosqldb.columnfamily import Column, ColumnFamily
from repro.nosqldb.cql import ast
from repro.nosqldb.errors import InvalidRequest
from repro.nosqldb.types import parse_type
from repro.query import (
    ACCESS_INDEX,
    ACCESS_MULTIGET,
    ACCESS_POINT,
    Aggregate,
    Columns,
    Executor,
    Filter,
    FullScan,
    IndexScan,
    Limit,
    MultiGet,
    PUSHABLE_OPS,
    Plan,
    PointLookup,
    Project,
    PushedCondition,
    PushedPredicate,
    ResultSet as _KernelResultSet,
    Sort,
    TableMeta,
    choose_access,
    compile_value,
    compile_value_list,
    condition_desc,
    count_rows,
    null_safe_key,
)


class ResultSet(_KernelResultSet):
    """Rows returned by a SELECT (list of column-name -> value dicts)."""

    __slots__ = ()


def _table_meta(table: ColumnFamily) -> TableMeta:
    return TableMeta(
        name=table.name,
        primary_key=(table.primary_key,),
        indexed=frozenset(table.indexed_columns),
        supports_pk_prefix=False,
    )


class CQLExecutor(Executor):
    """The NoSQL engine's half of the CQL binding: its DDL, UPDATE and
    DELETE by primary key, logged batches, the SELECT plan builder and
    the bulk INSERT and key DELETE templates.  Statements that return
    no rows return None, as the Cassandra driver does."""

    error = InvalidRequest
    result = ResultSet
    no_namespace = "no keyspace specified for table {!r}"

    @staticmethod
    def lookup(engine, name: str):
        return engine.keyspace(name)

    def _done(self, rowcount: int = 0):
        return None

    def select_plan(self, stmt: ast.Select) -> Plan:
        """Compile a SELECT statement into an executable kernel plan.

        Statement-shape validation — unknown tables/columns and Cassandra's
        ALLOW FILTERING gate (a full scan with residual filters must be
        opted into) — happens here, at plan-build time.  Raises
        :class:`InvalidRequest` exactly where per-execution interpretation
        used to.
        """
        table, guard = self._guarded(stmt.source)

        conditions = list(stmt.where)
        access, index = choose_access(
            _table_meta(table), [(c.column, c.op) for c in conditions]
        )
        condition = conditions[index] if index is not None else None
        residual = [c for c in conditions if c is not condition]

        cache_probe = lambda: table.block_cache_hits
        if access == ACCESS_POINT:
            node = PointLookup(
                table,
                key=compile_value(condition.value, InvalidRequest),
                table_name=table.name,
                key_desc=condition.column,
                cache_probe=cache_probe,
            )
        elif access == ACCESS_MULTIGET:
            # IN lists go through the batched multi-get: one block decode
            # per touched SSTable block instead of one walk per key.
            node = MultiGet(
                table,
                keys=compile_value_list(condition.value, InvalidRequest),
                table_name=table.name,
                key_desc=condition.column,
                cache_probe=cache_probe,
            )
        elif access == ACCESS_INDEX:
            pushed, residual = _split_pushdown(table, residual)
            node = IndexScan(
                table,
                column=condition.column,
                value=compile_value(condition.value, InvalidRequest),
                table_name=table.name,
                access=IndexScan.SECONDARY,
                pushed=pushed,
            )
        else:
            # The ALLOW FILTERING gate judges the statement *before* pushdown:
            # a scan with residual conditions stays an opt-in cost even when
            # the storage layer will end up evaluating them itself.
            if residual and not stmt.allow_filtering:
                raise InvalidRequest(
                    "this query requires a full scan; add ALLOW FILTERING to accept the cost"
                )
            pushed, residual = _split_pushdown(table, residual)
            node = FullScan(table, table.name, pushed=pushed)

        for cond in residual:
            table.column(cond.column)  # validate
            node = Filter(node, _condition(cond))

        if stmt.order_by is not None:
            table.column(stmt.order_by)  # validate
            order_name = stmt.order_by
            node = Sort(
                node,
                key=lambda row: null_safe_key(row.get(order_name)),
                descending=stmt.descending,
                detail=order_name,
            )
        if stmt.limit is not None:
            node = Limit(node, stmt.limit)
        if stmt.count:
            # CQL counts what the statement returns, so LIMIT applies first
            # (unlike SQL, where COUNT ignores it) — the Aggregate sits
            # above the Limit node and sums the selections it let through.
            node = Aggregate(node, count_rows, "count(*)")
        elif stmt.columns:
            names = tuple(stmt.columns)
            for name in names:
                table.column(name)  # validate
            node = Project(node, names, ", ".join(names))
        return Plan(node, guards=(guard,))

    def _writer(self, table: ColumnFamily, names, values):
        """Binds one column per slot and feeds
        :meth:`ColumnFamily.insert_columns`; declines collection literals
        (their inner bind markers need per-row sets) and an INSERT with
        no primary-key column."""
        columns = []
        slots = []  # (marker index, None) or (None, constant)
        for name, value in zip(names, values):
            if isinstance(value, ast.SetLiteral):
                return None
            columns.append(table.column(name))
            is_bind = isinstance(value, ast.Placeholder)
            slots.append((value.index, None) if is_bind else (None, value))
        if all(column.name != table.primary_key for column in columns):
            return None

        def write(batch: Columns) -> int:
            if not batch.n:
                return 0
            values = [
                [constant] * batch.n if index is None else batch.values[index]
                for index, constant in slots
            ]
            return table.insert_columns(columns, values)

        return write

    def _key_columns(self, table: ColumnFamily, statement: ast.Delete):
        return (table.primary_key,), [condition.column for condition in statement.where]

    # -- DDL ---------------------------------------------------------------------
    def _create_keyspace(self, stmt: ast.CreateKeyspace):
        self.engine.create_keyspace(
            stmt.name, durable_writes=stmt.durable_writes, if_not_exists=stmt.if_not_exists
        )
        return None, None

    def _create_table(self, stmt: ast.CreateTable):
        keyspace = self._namespace(stmt.source, "CREATE TABLE without a keyspace")
        columns = [Column(name, parse_type(type_text)) for name, type_text in stmt.columns]
        keyspace.create_table(
            stmt.source.table,
            columns,
            stmt.primary_key,
            compression=stmt.compression,
            if_not_exists=stmt.if_not_exists,
        )
        return None, None

    def _create_index(self, stmt: ast.CreateIndex):
        table = self._table(stmt.source)
        index_name = stmt.name or f"{table.name}_{stmt.column}_idx"
        if stmt.if_not_exists and table.has_index(stmt.column):
            return None, None
        table.create_index(index_name, stmt.column)
        return None, None

    def _drop_table(self, stmt: ast.DropTable):
        self._namespace(stmt.source, "DROP TABLE without a keyspace").drop_table(
            stmt.source.table
        )
        return None, None

    def _drop_keyspace(self, stmt: ast.DropKeyspace):
        self.engine.drop_keyspace(stmt.name)
        return None, None

    # -- UPDATE/DELETE: one row, named by its primary key ------------------------
    def _update(self, stmt: ast.Update):
        table = self._table(stmt.source)
        key = self._pk_from_where(table, stmt.where)
        assignments = {column: self._resolve(value) for column, value in stmt.assignments}
        table.update(key, assignments)
        return None, None

    def _delete(self, stmt: ast.Delete):
        table = self._table(stmt.source)
        table.delete(self._pk_from_where(table, stmt.where))
        return None, None

    def _pk_from_where(self, table: ColumnFamily, where: List[ast.Condition]):
        if len(where) != 1 or where[0].column != table.primary_key or where[0].op != "=":
            raise InvalidRequest(
                f"statement must target the primary key: WHERE {table.primary_key} = ..."
            )
        return self._resolve(where[0].value)

    def _batch(self, stmt: ast.Batch):
        """Logged batch: apply every mutation in order."""
        for inner in stmt.statements:
            self.run(inner)
        return None, None

    handlers = {
        **Executor.handlers,
        ast.CreateKeyspace: "_create_keyspace",
        ast.CreateTable: "_create_table",
        ast.CreateIndex: "_create_index",
        ast.DropTable: "_drop_table",
        ast.DropKeyspace: "_drop_keyspace",
        ast.Update: "_update",
        ast.Delete: "_delete",
        ast.Batch: "_batch",
    }


def _split_pushdown(table: ColumnFamily, residual):
    """Partition residual conditions into ``(PushedPredicate, leftover)``.

    Conditions with a pushable operator (see
    :data:`repro.query.PUSHABLE_OPS`) move into the storage layer;
    ``IS NULL`` / ``IS NOT NULL`` and anything else stay as Filter nodes
    above the access path.  Raises :class:`InvalidRequest` (via
    ``table.column``) for unknown column names, exactly as the Filter
    construction it replaces did.
    """
    pushable = []
    leftover = []
    for cond in residual:
        table.column(cond.column)  # validate
        if cond.op in PUSHABLE_OPS:
            pushable.append(_condition(cond))
        else:
            leftover.append(cond)
    pushed = PushedPredicate(pushable) if pushable else None
    return pushed, leftover


def _condition(condition: ast.Condition) -> PushedCondition:
    """One WHERE conjunct in the kernel's declarative form."""
    if condition.op == "IN":
        resolve = compile_value_list(condition.value, InvalidRequest)
    else:
        resolve = compile_value(condition.value, InvalidRequest)
    return PushedCondition(
        condition.column, condition.op, resolve, condition_desc(condition)
    )
