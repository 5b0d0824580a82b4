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

from typing import Dict, List, Optional, Sequence, Tuple

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
    Filter,
    FullScan,
    IndexScan,
    InsertTemplate,
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
    analyze_plan,
    choose_access,
    compile_value,
    compile_value_list,
    condition_desc,
    count_rows,
    null_safe_key,
    reject_repeated_columns,
    table_guard,
)


class ResultSet(_KernelResultSet):
    """Rows returned by a SELECT (list of column-name -> value dicts)."""

    __slots__ = ()

    def __init__(self, rows: List[Dict[str, object]]) -> None:
        super().__init__(rows)


def execute(
    engine,
    statement: ast.Statement,
    params: Sequence = (),
    current_keyspace: Optional[str] = None,
) -> Tuple[Optional[ResultSet], Optional[str]]:
    """Run ``statement``; returns ``(result_set, new_current_keyspace)``.

    ``new_current_keyspace`` is non-None only for USE statements.
    """
    runner = _Executor(engine, params, current_keyspace)
    return runner.run(statement)


def insert_template(
    engine, statement: ast.Statement, current_keyspace: Optional[str]
) -> Optional[InsertTemplate]:
    """Resolve a plain INSERT once, for :meth:`Session.execute_many`.

    The column family and each value slot — a bind marker's index or a
    constant — are resolved here, so bulk execution binds one column per
    slot and feeds :meth:`ColumnFamily.insert_columns`.  Returns
    ``None`` when the statement cannot be planned ahead of execution
    (collection literals with inner bind markers, non-INSERT statements,
    no resolvable keyspace, no primary-key column) — those run through
    the generic executor.
    """
    if not isinstance(statement, ast.Insert):
        return None
    reject_repeated_columns(statement.columns, InvalidRequest)
    keyspace_name = statement.ref.keyspace or current_keyspace
    if keyspace_name is None:
        return None
    table_name = statement.ref.table
    table = engine.keyspace(keyspace_name).table(table_name)
    columns = []
    slots = []  # (marker index, None) or (None, constant)
    for name, value in zip(statement.columns, statement.values):
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

    guard = table_guard(lambda: engine.keyspace(keyspace_name).table(table_name), table)
    return InsertTemplate(table, write, (guard,))


def _table_meta(table: ColumnFamily) -> TableMeta:
    return TableMeta(
        name=table.name,
        primary_key=(table.primary_key,),
        indexed=frozenset(table.indexed_columns),
        supports_pk_prefix=False,
    )


def build_select_plan(
    engine, stmt: ast.Select, current_keyspace: Optional[str]
) -> Plan:
    """Compile a SELECT statement into an executable kernel plan.

    Statement-shape validation — unknown tables/columns and Cassandra's
    ALLOW FILTERING gate (a full scan with residual filters must be
    opted into) — happens here, at plan-build time.  Raises
    :class:`InvalidRequest` exactly where per-execution interpretation
    used to.
    """
    keyspace_name = stmt.ref.keyspace or current_keyspace
    if keyspace_name is None:
        raise InvalidRequest(f"no keyspace specified for table {stmt.ref.table!r}")
    table = engine.keyspace(keyspace_name).table(stmt.ref.table)
    table_name = stmt.ref.table
    guards = (
        table_guard(lambda: engine.keyspace(keyspace_name).table(table_name), table),
    )

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
    return Plan(node, guards=guards)


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


class _Executor:
    def __init__(self, engine, params: Sequence, current_keyspace: Optional[str]) -> None:
        self.engine = engine
        self.params = tuple(params)
        self.current_keyspace = current_keyspace

    # -- value resolution ----------------------------------------------------
    def _resolve(self, value):
        return compile_value(value, InvalidRequest)(self.params)

    def _table(self, ref: ast.TableRef) -> ColumnFamily:
        keyspace_name = ref.keyspace or self.current_keyspace
        if keyspace_name is None:
            raise InvalidRequest(f"no keyspace specified for table {ref.table!r}")
        return self.engine.keyspace(keyspace_name).table(ref.table)

    # -- dispatch ---------------------------------------------------------------
    def run(self, statement: ast.Statement):
        handler = {
            ast.CreateKeyspace: self._create_keyspace,
            ast.CreateTable: self._create_table,
            ast.CreateIndex: self._create_index,
            ast.DropTable: self._drop_table,
            ast.DropKeyspace: self._drop_keyspace,
            ast.Use: self._use,
            ast.Insert: self._insert,
            ast.Select: self._select,
            ast.Update: self._update,
            ast.Delete: self._delete,
            ast.Truncate: self._truncate,
            ast.Batch: self._batch,
            ast.Explain: self._explain,
        }.get(type(statement))
        if handler is None:
            raise InvalidRequest(f"unsupported statement {type(statement).__name__}")
        return handler(statement)

    # -- DDL ---------------------------------------------------------------------
    def _create_keyspace(self, stmt: ast.CreateKeyspace):
        self.engine.create_keyspace(
            stmt.name, durable_writes=stmt.durable_writes, if_not_exists=stmt.if_not_exists
        )
        return None, None

    def _create_table(self, stmt: ast.CreateTable):
        keyspace_name = stmt.ref.keyspace or self.current_keyspace
        if keyspace_name is None:
            raise InvalidRequest("CREATE TABLE without a keyspace")
        keyspace = self.engine.keyspace(keyspace_name)
        columns = [Column(name, parse_type(type_text)) for name, type_text in stmt.columns]
        keyspace.create_table(
            stmt.ref.table,
            columns,
            stmt.primary_key,
            compression=stmt.compression,
            if_not_exists=stmt.if_not_exists,
        )
        return None, None

    def _create_index(self, stmt: ast.CreateIndex):
        table = self._table(stmt.ref)
        index_name = stmt.name or f"{table.name}_{stmt.column}_idx"
        if stmt.if_not_exists and table.has_index(stmt.column):
            return None, None
        table.create_index(index_name, stmt.column)
        return None, None

    def _drop_table(self, stmt: ast.DropTable):
        keyspace_name = stmt.ref.keyspace or self.current_keyspace
        if keyspace_name is None:
            raise InvalidRequest("DROP TABLE without a keyspace")
        self.engine.keyspace(keyspace_name).drop_table(stmt.ref.table)
        return None, None

    def _drop_keyspace(self, stmt: ast.DropKeyspace):
        self.engine.drop_keyspace(stmt.name)
        return None, None

    def _use(self, stmt: ast.Use):
        self.engine.keyspace(stmt.name)  # validates existence
        return None, stmt.name

    # -- DML ----------------------------------------------------------------------
    def _insert(self, stmt: ast.Insert):
        reject_repeated_columns(stmt.columns, InvalidRequest)
        table = self._table(stmt.ref)
        row = {}
        for column, value in zip(stmt.columns, stmt.values):
            resolved = self._resolve(value)
            if resolved is not None:
                row[column] = resolved
        table.insert(row)
        return None, None

    # -- SELECT -----------------------------------------------------------------
    def _select(self, stmt: ast.Select):
        plan = build_select_plan(self.engine, stmt, self.current_keyspace)
        return ResultSet(plan.run(self.params)), None

    def _update(self, stmt: ast.Update):
        table = self._table(stmt.ref)
        key = self._pk_from_where(table, stmt.where)
        assignments = {column: self._resolve(value) for column, value in stmt.assignments}
        table.update(key, assignments)
        return None, None

    def _delete(self, stmt: ast.Delete):
        table = self._table(stmt.ref)
        key = self._pk_from_where(table, stmt.where)
        table.delete(key)
        return None, None

    def _pk_from_where(self, table: ColumnFamily, where: List[ast.Condition]):
        if len(where) != 1 or where[0].column != table.primary_key or where[0].op != "=":
            raise InvalidRequest(
                f"statement must target the primary key: WHERE {table.primary_key} = ..."
            )
        return self._resolve(where[0].value)

    def _truncate(self, stmt: ast.Truncate):
        self._table(stmt.ref).truncate()
        return None, None

    def _batch(self, stmt: ast.Batch):
        """Logged batch: apply every mutation in order."""
        for inner in stmt.statements:
            self.run(inner)
        return None, None

    # -- EXPLAIN ------------------------------------------------------------------
    def _explain(self, stmt: ast.Explain):
        """Build the plan; one row per operator.  With ANALYZE the plan
        is also executed and every row carries actual counters."""
        plan = build_select_plan(self.engine, stmt.select, self.current_keyspace)
        if not stmt.analyze:
            return ResultSet(plan.explain()), None
        analyzed = analyze_plan(plan, self.params)
        result = ResultSet(analyzed.report)
        result.analyzed = analyzed
        return result, None
