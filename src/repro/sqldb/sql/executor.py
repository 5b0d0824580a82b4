"""SQL execution against a :class:`~repro.sqldb.engine.SQLEngine`.

SELECTs are compiled into :mod:`repro.query` plans: a storage-bound
access leaf (point read when the WHERE clause pins the primary key or an
indexed column, otherwise a scan), hash equi-joins in FROM order,
residual filters, then sort/limit/projection or aggregation.  This
module is the SQL *binding* of the shared kernel — it turns the dialect
AST into the callables the plan nodes carry, and keeps all
engine-specific error behaviour (:class:`ProgrammingError`) on this
side of the boundary.  ``EXPLAIN SELECT`` renders the same plan tree
without executing it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.query import (
    ACCESS_INDEX,
    ACCESS_MULTIGET,
    ACCESS_PK_PREFIX,
    ACCESS_POINT,
    Aggregate,
    BoundPredicate,
    Filter,
    FullScan,
    HashJoin,
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
    ResultSet,
    Sort,
    TableMeta,
    analyze_plan,
    choose_access,
    choose_join_access,
    compile_value,
    compile_value_list,
    condition_desc,
    count_rows,
    evaluate_aggregate,
    null_safe_key,
    reject_repeated_columns,
    table_guard,
)
from repro.sqldb.errors import ProgrammingError
from repro.sqldb.sql import ast
from repro.sqldb.table import SQLColumn, Table
from repro.sqldb.types import parse_type


class SQLResult(ResultSet):
    """Rows returned by a SELECT, plus the affected-row count for DML."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"SQLResult({len(self.rows)} rows, rowcount={self.rowcount})"


def execute(
    engine,
    statement: ast.Statement,
    params: Sequence = (),
    current_database: Optional[str] = None,
) -> Tuple[SQLResult, Optional[str]]:
    return _Executor(engine, params, current_database).run(statement)


def insert_template(
    engine, statement: ast.Statement, current_database: Optional[str]
) -> Optional[InsertTemplate]:
    """Resolve a single-row INSERT once, for :meth:`SQLSession.execute_many`.

    The table and its ``(column_name, is_bind, index_or_constant)`` slots
    are resolved here, so bulk execution only binds parameters and feeds
    the batch's rows to :meth:`Table.insert_rows`.  Returns ``None`` for
    anything but a one-row INSERT with a resolvable database — those run
    through the generic executor.
    """
    if not isinstance(statement, ast.Insert) or len(statement.rows) != 1:
        return None
    reject_repeated_columns(statement.columns, ProgrammingError)
    database_name = statement.source.database or current_database
    if database_name is None:
        return None
    table_name = statement.source.table
    table = engine.database(database_name).table(table_name)
    template = []
    for column, value in zip(statement.columns, statement.rows[0]):
        is_bind = isinstance(value, ast.Placeholder)
        template.append((column, is_bind, value.index if is_bind else value))

    def dict_rows(rows):
        for params in rows:
            row = {}
            for column, is_bind, value in template:
                resolved = params[value] if is_bind else value
                if resolved is not None:
                    row[column] = resolved
            yield row

    guard = table_guard(lambda: engine.database(database_name).table(table_name), table)
    return InsertTemplate(
        table, lambda batch: table.insert_rows(dict_rows(batch.rows())), (guard,)
    )


def _table_meta(table: Table, alias: str) -> TableMeta:
    return TableMeta(
        name=alias,
        primary_key=tuple(table.primary_key),
        indexed=frozenset(table.indexed_columns),
        supports_pk_prefix=len(table.primary_key) > 1,
    )


def build_select_plan(
    engine, stmt: ast.Select, current_database: Optional[str]
) -> Plan:
    """Compile a SELECT statement into an executable kernel plan.

    All statement-shape validation (unknown tables/columns, ambiguous
    references, GROUP BY rules) happens here, at plan-build time; the
    returned plan only binds parameters and runs.  Raises
    :class:`ProgrammingError` exactly where per-execution interpretation
    used to.
    """
    return _SelectPlanBuilder(engine, stmt, current_database).build()


class _SelectPlanBuilder:
    def __init__(self, engine, stmt: ast.Select, current_database: Optional[str]) -> None:
        self.engine = engine
        self.stmt = stmt
        self.current_database = current_database
        self.tables: Dict[str, Table] = {}
        self.guards: List[Callable[[], bool]] = []
        self.base_alias = stmt.source.alias

    def _slot(self, alias: str, name: str) -> str:
        """The key a column has in the rows flowing through the plan:
        base-table columns keep their stored name (scan batches flow
        through untouched), joined tables' columns are qualified."""
        return name if alias == self.base_alias else f"{alias}.{name}"

    def build(self) -> Plan:
        stmt = self.stmt
        sources = [stmt.source] + [join.source for join in stmt.joins]
        aliases = [source.alias for source in sources]
        if len(set(aliases)) != len(aliases):
            raise ProgrammingError(f"duplicate table alias in {aliases}")
        for source in sources:
            self.tables[source.alias] = self._resolve_table(source)

        node, residual = self._base_access(self.base_alias, list(stmt.where))
        for join in stmt.joins:
            node = self._join(node, join)
        for condition in residual:
            node = Filter(node, self._condition(condition))

        if stmt.count:
            # SELECT COUNT(*) counts the filtered set; ORDER BY/LIMIT are
            # ignored, as they always were on this fast path.
            return self._finish(Aggregate(node, count_rows, "count(*)"))
        if stmt.aggregates:
            return self._finish(self._aggregate_tail(node))

        for ref in stmt.columns:  # validate even when no rows will match
            self._locate(ref)
        if stmt.order_by is not None:
            order_slot = self._slot(*self._locate(stmt.order_by))
            node = Sort(
                node,
                key=lambda row: null_safe_key(row[order_slot]),
                descending=stmt.descending,
                detail=str(stmt.order_by),
            )
        if stmt.limit is not None:
            node = Limit(node, stmt.limit)
        names, labels = self._projection()
        node = Project(node, names, self._projection_desc(), labels)
        return self._finish(node)

    def _finish(self, node) -> Plan:
        return Plan(node, guards=tuple(self.guards))

    # -- source resolution --------------------------------------------------
    def _resolve_table(self, source: ast.TableSource) -> Table:
        database_name = source.database or self.current_database
        if database_name is None:
            raise ProgrammingError(f"no database selected for table {source.table!r}")
        engine, table_name = self.engine, source.table
        table = engine.database(database_name).table(table_name)
        self.guards.append(
            table_guard(lambda: engine.database(database_name).table(table_name), table)
        )
        return table

    # -- access-path selection ----------------------------------------------
    def _base_access(self, alias: str, conditions: List[ast.Condition]):
        """The cheapest access path the WHERE clause allows, plus the
        residual conditions the chosen path does not consume."""
        table = self.tables[alias]
        eligible = [
            c for c in conditions if c.column.qualifier in (None, alias)
        ]
        access, index = choose_access(
            _table_meta(table, alias),
            [(c.column.name, c.op) for c in eligible],
        )
        condition = eligible[index] if index is not None else None
        residual = [c for c in conditions if c is not condition]

        if access == ACCESS_POINT:
            node = PointLookup(
                table,
                key=compile_value(condition.value, ProgrammingError),
                table_name=alias,
                key_desc=str(condition.column),
            )
        elif access == ACCESS_MULTIGET:
            node = MultiGet(
                table,
                keys=compile_value_list(condition.value, ProgrammingError),
                table_name=alias,
                key_desc=str(condition.column),
            )
        elif access == ACCESS_PK_PREFIX:
            pushed, residual = self._split_pushdown(alias, residual)
            node = IndexScan(
                table,
                column=condition.column.name,
                value=compile_value(condition.value, ProgrammingError),
                table_name=alias,
                access=IndexScan.PK_PREFIX,
                pushed=pushed,
            )
        elif access == ACCESS_INDEX:
            pushed, residual = self._split_pushdown(alias, residual)
            node = IndexScan(
                table,
                column=condition.column.name,
                value=compile_value(condition.value, ProgrammingError),
                table_name=alias,
                access=IndexScan.SECONDARY,
                pushed=pushed,
            )
        else:
            pushed, residual = self._split_pushdown(alias, residual)
            node = FullScan(table, alias, pushed=pushed)
        return node, residual

    def _split_pushdown(self, alias: str, residual: List[ast.Condition]):
        """Partition residual conditions into ``(PushedPredicate, leftover)``.

        A condition moves into the storage layer only when its operator
        is pushable (:data:`repro.query.PUSHABLE_OPS` — IS NULL and
        IS NOT NULL stay in Filter nodes) *and* it resolves unambiguously
        to a column of the base table ``alias``.  Conditions on joined
        tables, ambiguous references, or unknown columns stay residual,
        so their errors surface exactly where Filter construction always
        raised them.  Pushing base-table conditions below the join stack
        is sound because every join here is an inner equi-join: dropping
        a base row early can only remove output rows the Filter would
        have removed later.
        """
        pushable = []
        leftover = []
        for cond in residual:
            if cond.op not in PUSHABLE_OPS:
                leftover.append(cond)
                continue
            try:
                located_alias, name = self._locate(cond.column)
            except ProgrammingError:
                leftover.append(cond)
                continue
            if located_alias != alias:
                leftover.append(cond)
                continue
            pushable.append(self._condition(cond))
        pushed = PushedPredicate(pushable) if pushable else None
        return pushed, leftover

    # -- joins ---------------------------------------------------------------
    def _join(self, node, join: ast.Join):
        right_alias = join.source.alias
        right_table = self.tables[right_alias]

        left_ref, right_ref = join.left, join.right
        # Normalise so right_ref refers to the newly joined table.
        if left_ref.qualifier == right_alias:
            left_ref, right_ref = right_ref, left_ref
        if right_ref.qualifier != right_alias:
            raise ProgrammingError(
                f"JOIN ON must reference {right_alias!r} on one side"
            )
        right_table.column(right_ref.name)
        left_alias, left_name = self._locate_in_env(left_ref, exclude=right_alias)

        # Index nested-loop when the join column is the right table's
        # primary key or an indexed column (MySQL's ref/eq_ref access);
        # otherwise build a hash table over the right side per execution.
        access = choose_join_access(
            _table_meta(right_table, right_alias), right_ref.name
        )
        right_name = right_ref.name
        build_table = probe_factory = None
        if access == ACCESS_POINT:
            detail = "eq_ref"

            def probe_factory():
                def probe(key):
                    row = right_table.get(key)
                    return (row,) if row is not None else ()

                return probe

        elif access == ACCESS_INDEX:
            detail = "secondary-index"

            def probe_factory():
                def probe(key):
                    return right_table.lookup_indexed(right_name, key)

                return probe

        else:
            detail = "hash build"
            # Declaring the build side has the kernel hash the right
            # table itself.
            build_table = right_table

        left_slot = self._slot(left_alias, left_name)
        right_names = right_table.column_names
        right_slots = [self._slot(right_alias, name) for name in right_names]

        def merge(row, right_row):
            merged = dict(row)
            merged.update(zip(right_slots, map(right_row.__getitem__, right_names)))
            return merged

        return HashJoin(
            node,
            key_of=lambda row: row[left_slot],
            merge=merge,
            table_name=right_alias,
            detail=detail,
            key_desc=str(right_ref),
            probe_factory=probe_factory,
            build_table=build_table,
            build_key=right_name if build_table is not None else None,
        )

    # -- filters --------------------------------------------------------------
    def _condition(self, condition: ast.Condition) -> PushedCondition:
        """One WHERE conjunct in the kernel's declarative form, its
        column resolved to the slot it occupies in the flowing rows."""
        if condition.op == "IN":
            resolve = compile_value_list(condition.value, ProgrammingError)
        else:
            resolve = compile_value(condition.value, ProgrammingError)
        return PushedCondition(
            self._slot(*self._locate(condition.column)),
            condition.op, resolve, condition_desc(condition),
        )

    # -- aggregation -----------------------------------------------------------
    def _aggregate_tail(self, node):
        """GROUP BY / aggregate evaluation over the filtered row set."""
        stmt = self.stmt
        group_refs = list(stmt.group_by)
        group_slots = [self._slot(*self._locate(ref)) for ref in group_refs]
        # Plain select items must be grouping columns (standard SQL rule).
        group_names = {(ref.qualifier, ref.name) for ref in group_refs} | {
            (None, ref.name) for ref in group_refs
        }
        for ref in stmt.columns:
            if (ref.qualifier, ref.name) not in group_names:
                raise ProgrammingError(
                    f"column {ref!r} must appear in the GROUP BY clause"
                )
        group_labels = [
            ref.name if ref.qualifier is None else f"{ref.qualifier}.{ref.name}"
            for ref in group_refs
        ]
        aggregates = [
            (agg, self._slot(*self._locate(agg.column)) if agg.column is not None else None)
            for agg in stmt.aggregates
        ]

        detail = ", ".join(agg.label for agg in stmt.aggregates)
        if group_labels:
            detail += f" group by {', '.join(group_labels)}"
        node = Aggregate(
            node, _aggregate_finish(group_slots, group_labels, aggregates), detail
        )

        if stmt.order_by is not None:
            label = (
                stmt.order_by.name
                if stmt.order_by.qualifier is None
                else f"{stmt.order_by.qualifier}.{stmt.order_by.name}"
            )

            def sort_key(row):
                # Validated lazily so an empty group set never raises,
                # matching the historical first-row membership check.
                if label not in row:
                    raise ProgrammingError(
                        f"ORDER BY {label!r} must be a grouping column or aggregate label"
                    )
                return null_safe_key(row[label])

            node = Sort(node, sort_key, stmt.descending, label)
        if stmt.limit is not None:
            node = Limit(node, stmt.limit)
        return node

    # -- projection --------------------------------------------------------------
    def _projection(self):
        """``(names, labels)`` for the Project node: the slots the output
        rows are built from and the keys they get.  ``(None, None)`` is
        SELECT * over one table — every column under its own name."""
        columns = self.stmt.columns
        names: List[str] = []
        labels: List[str] = []
        if not columns:  # SELECT *
            if len(self.tables) == 1:
                return None, None
            for alias, table in self.tables.items():
                for name in table.column_names:
                    names.append(self._slot(alias, name))
                    labels.append(name if name not in labels else f"{alias}.{name}")
            return names, labels
        for ref in columns:
            alias, name = self._locate(ref)
            names.append(self._slot(alias, name))
            labels.append(name if ref.qualifier is None else f"{alias}.{name}")
        return names, labels

    def _projection_desc(self) -> str:
        if not self.stmt.columns:
            return "*"
        return ", ".join(str(ref) for ref in self.stmt.columns)

    # -- column resolution ---------------------------------------------------------
    def _locate(self, ref: ast.ColumnRef) -> Tuple[str, str]:
        """Resolve a column reference to ``(alias, column_name)``."""
        return self._locate_in_env(ref, exclude=None)

    def _locate_in_env(
        self, ref: ast.ColumnRef, exclude: Optional[str]
    ) -> Tuple[str, str]:
        if ref.qualifier is not None:
            if ref.qualifier not in self.tables:
                raise ProgrammingError(f"unknown table alias {ref.qualifier!r}")
            self.tables[ref.qualifier].column(ref.name)
            return ref.qualifier, ref.name
        owners = [
            alias
            for alias, table in self.tables.items()
            if alias != exclude and ref.name in table.column_names
        ]
        if not owners:
            raise ProgrammingError(f"unknown column {ref.name!r}")
        if len(owners) > 1:
            raise ProgrammingError(f"ambiguous column {ref.name!r} (in {owners})")
        return owners[0], ref.name


class _Executor:
    def __init__(self, engine, params: Sequence, current_database: Optional[str]) -> None:
        self.engine = engine
        self.params = tuple(params)
        self.current_database = current_database

    # -- helpers ------------------------------------------------------------
    def _resolve(self, value):
        return compile_value(value, ProgrammingError)(self.params)

    def _table(self, source: ast.TableSource) -> Table:
        database_name = source.database or self.current_database
        if database_name is None:
            raise ProgrammingError(f"no database selected for table {source.table!r}")
        return self.engine.database(database_name).table(source.table)

    # -- dispatch ---------------------------------------------------------------
    def run(self, statement: ast.Statement):
        handler = {
            ast.CreateDatabase: self._create_database,
            ast.CreateTable: self._create_table,
            ast.CreateIndex: self._create_index,
            ast.DropTable: self._drop_table,
            ast.DropDatabase: self._drop_database,
            ast.Use: self._use,
            ast.Insert: self._insert,
            ast.Select: self._select,
            ast.Update: self._update,
            ast.Delete: self._delete,
            ast.Truncate: self._truncate,
            ast.Explain: self._explain,
        }.get(type(statement))
        if handler is None:
            raise ProgrammingError(f"unsupported statement {type(statement).__name__}")
        return handler(statement)

    # -- DDL ---------------------------------------------------------------------
    def _create_database(self, stmt: ast.CreateDatabase):
        self.engine.create_database(stmt.name, if_not_exists=stmt.if_not_exists)
        return SQLResult(), None

    def _create_table(self, stmt: ast.CreateTable):
        database_name = stmt.source.database or self.current_database
        if database_name is None:
            raise ProgrammingError("CREATE TABLE without a database")
        columns = [
            SQLColumn(name, parse_type(type_text), not_null)
            for name, type_text, not_null in stmt.columns
        ]
        self.engine.database(database_name).create_table(
            stmt.source.table, columns, stmt.primary_key, if_not_exists=stmt.if_not_exists
        )
        return SQLResult(), None

    def _create_index(self, stmt: ast.CreateIndex):
        self._table(stmt.source).create_index(stmt.name, stmt.column)
        return SQLResult(), None

    def _drop_table(self, stmt: ast.DropTable):
        database_name = stmt.source.database or self.current_database
        if database_name is None:
            raise ProgrammingError("DROP TABLE without a database")
        self.engine.database(database_name).drop_table(stmt.source.table)
        return SQLResult(), None

    def _drop_database(self, stmt: ast.DropDatabase):
        self.engine.drop_database(stmt.name)
        return SQLResult(), None

    def _use(self, stmt: ast.Use):
        self.engine.database(stmt.name)  # validates existence
        return SQLResult(), stmt.name

    # -- DML ----------------------------------------------------------------------
    def _insert(self, stmt: ast.Insert):
        reject_repeated_columns(stmt.columns, ProgrammingError)
        table = self._table(stmt.source)
        count = 0
        for values in stmt.rows:
            row = {}
            for column, value in zip(stmt.columns, values):
                resolved = self._resolve(value)
                if resolved is not None:
                    row[column] = resolved
            table.insert(row)
            count += 1
        return SQLResult(rowcount=count), None

    # -- SELECT -----------------------------------------------------------------
    def _select(self, stmt: ast.Select):
        plan = build_select_plan(self.engine, stmt, self.current_database)
        return SQLResult(plan.run(self.params)), None

    # -- UPDATE/DELETE ------------------------------------------------------------
    def _predicate(self, table: Table, alias: str, where: List[ast.Condition]):
        builder = _SelectPlanBuilder.__new__(_SelectPlanBuilder)
        builder.engine = self.engine
        builder.stmt = None
        builder.current_database = self.current_database
        builder.tables = {alias: table}
        builder.guards = []
        builder.base_alias = alias
        params = self.params
        return BoundPredicate(tuple(
            (column, op, resolve(params))
            for column, op, resolve, _ in map(builder._condition, where)
        )).matches

    def _update(self, stmt: ast.Update):
        table = self._table(stmt.source)
        assignments = {name: self._resolve(value) for name, value in stmt.assignments}
        count = table.update_where(
            self._predicate(table, stmt.source.alias, stmt.where), assignments
        )
        return SQLResult(rowcount=count), None

    def _delete(self, stmt: ast.Delete):
        table = self._table(stmt.source)
        count = table.delete_where(self._predicate(table, stmt.source.alias, stmt.where))
        return SQLResult(rowcount=count), None

    def _truncate(self, stmt: ast.Truncate):
        self._table(stmt.source).truncate()
        return SQLResult(), None

    # -- EXPLAIN ------------------------------------------------------------------
    def _explain(self, stmt: ast.Explain):
        """Build the plan; one row per operator.  With ANALYZE the plan
        is also executed and every row carries actual counters."""
        plan = build_select_plan(self.engine, stmt.select, self.current_database)
        if not stmt.analyze:
            return SQLResult(plan.explain()), None
        analyzed = analyze_plan(plan, self.params)
        result = SQLResult(analyzed.report)
        result.analyzed = analyzed
        return result, None


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _aggregate_finish(group_slots, group_labels, aggregates) -> Callable:
    """The ``finish(batches, params) -> rows`` of a GROUP BY / aggregate
    tail.

    It reads the grouping and aggregate columns of each batch as vectors
    — no row is built — and gathers each group's row count and non-NULL
    values per aggregate column (NULLs ignored, as in SQL).  Groups come
    out in first-appearance order of the stream — SQL guarantees no
    order without ORDER BY, and the Sort node (when present) sits above
    the Aggregate either way.
    """
    value_slots = list(dict.fromkeys(slot for _, slot in aggregates if slot is not None))

    def finish(batches, params):
        groups: Dict[tuple, list] = {}  # key -> [row count, values per value slot]
        for batch in batches:
            n = batch.count()
            if not n:
                continue
            vectors = [batch.values(slot) for slot in value_slots]
            if group_slots:
                keys = zip(*[batch.values(slot) for slot in group_slots])
            else:
                keys = ((),) * n
            for position, key in enumerate(keys):
                group = groups.get(key)
                if group is None:
                    group = groups[key] = [0, [[] for _ in value_slots]]
                group[0] += 1
                for values, vector in zip(group[1], vectors):
                    if vector[position] is not None:
                        values.append(vector[position])
        if not group_slots and not groups:
            groups[()] = [0, [[] for _ in value_slots]]  # zero rows still report
        out_rows: List[Dict[str, object]] = []
        for key, (count, gathered) in groups.items():
            by_slot = dict(zip(value_slots, gathered))
            row: Dict[str, object] = dict(zip(group_labels, key))
            for agg, slot in aggregates:
                if slot is None:  # COUNT(*)
                    row[agg.label] = count
                    continue
                try:
                    row[agg.label] = evaluate_aggregate(agg.func, by_slot[slot])
                except ValueError:  # pragma: no cover - parsers only emit known funcs
                    raise ProgrammingError(f"unknown aggregate {agg.func!r}") from None
            out_rows.append(row)
        return out_rows

    return finish
