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

from typing import Callable, Dict, List, Optional, Tuple

from repro.query import (
    ACCESS_INDEX,
    ACCESS_MULTIGET,
    ACCESS_PK_PREFIX,
    ACCESS_POINT,
    Aggregate,
    BoundPredicate,
    Executor,
    Filter,
    FullScan,
    HashJoin,
    IndexScan,
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
    choose_access,
    choose_join_access,
    compile_value,
    compile_value_list,
    condition_desc,
    count_rows,
    evaluate_aggregate,
    null_safe_key,
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


def _table_meta(table: Table, alias: str) -> TableMeta:
    return TableMeta(
        name=alias,
        primary_key=tuple(table.primary_key),
        indexed=frozenset(table.indexed_columns),
        supports_pk_prefix=len(table.primary_key) > 1,
    )


class SQLExecutor(Executor):
    """The relational engine's half of the SQL binding: its DDL, UPDATE
    and DELETE by predicate, the SELECT plan builder and the bulk
    INSERT and key DELETE templates."""

    error = ProgrammingError
    result = SQLResult
    no_namespace = "no database selected for table {!r}"

    @staticmethod
    def lookup(engine, name: str):
        return engine.database(name)

    def select_plan(self, stmt: ast.Select) -> Plan:
        """Compile a SELECT statement into an executable kernel plan.

        All statement-shape validation (unknown tables/columns, ambiguous
        references, GROUP BY rules) happens here, at plan-build time; the
        returned plan only binds parameters and runs.  Raises
        :class:`ProgrammingError` exactly where per-execution
        interpretation used to.
        """
        sources = [stmt.source] + [join.source for join in stmt.joins]
        aliases = [source.alias for source in sources]
        if len(set(aliases)) != len(aliases):
            raise ProgrammingError(f"duplicate table alias in {aliases}")
        tables: Dict[str, Table] = {}
        guards: List[Callable[[], bool]] = []
        for source in sources:
            tables[source.alias], guard = self._guarded(source)
            guards.append(guard)
        return _SelectPlanBuilder(tables, stmt.source.alias, stmt).build(guards)

    def _writer(self, table: Table, columns, values):
        """Feeds :meth:`Table.insert_columns` the batch's columns as they
        are, a constant slot as a constant column.  Raises
        ProgrammingError for a column the table lacks."""
        for name in columns:
            table.column(name)
        slots = [  # (marker index, None) or (None, constant)
            (value.index, None) if isinstance(value, ast.Placeholder) else (None, value)
            for value in values
        ]

        def write(batch) -> int:
            if not batch.n:
                return 0
            return table.insert_columns(columns, [
                [constant] * batch.n if index is None else batch.values[index]
                for index, constant in slots
            ])

        return write

    def _key_columns(self, table: Table, statement: ast.Delete):
        alias = statement.source.alias
        return table.primary_key, [
            condition.column.name if condition.column.qualifier in (None, alias) else None
            for condition in statement.where
        ]

    # -- DDL ---------------------------------------------------------------------
    def _create_database(self, stmt: ast.CreateDatabase):
        self.engine.create_database(stmt.name, if_not_exists=stmt.if_not_exists)
        return self._done(), None

    def _create_table(self, stmt: ast.CreateTable):
        database = self._namespace(stmt.source, "CREATE TABLE without a database")
        columns = [
            SQLColumn(name, parse_type(type_text), not_null)
            for name, type_text, not_null in stmt.columns
        ]
        database.create_table(
            stmt.source.table, columns, stmt.primary_key, if_not_exists=stmt.if_not_exists
        )
        return self._done(), None

    def _create_index(self, stmt: ast.CreateIndex):
        self._table(stmt.source).create_index(stmt.name, stmt.column)
        return self._done(), None

    def _drop_table(self, stmt: ast.DropTable):
        self._namespace(stmt.source, "DROP TABLE without a database").drop_table(
            stmt.source.table
        )
        return self._done(), None

    def _drop_database(self, stmt: ast.DropDatabase):
        self.engine.drop_database(stmt.name)
        return self._done(), None

    # -- UPDATE/DELETE: rows chosen by predicate ----------------------------------
    def _predicate(self, table: Table, alias: str, where: List[ast.Condition]) -> BoundPredicate:
        """The WHERE clause bound for this execution (SELECT's evaluator)."""
        builder = _SelectPlanBuilder({alias: table}, alias)
        params = self.params
        return BoundPredicate(tuple(
            (column, op, resolve(params))
            for column, op, resolve, _ in map(builder._condition, where)
        ))

    def _update(self, stmt: ast.Update):
        table = self._table(stmt.source)
        assignments = {name: self._resolve(value) for name, value in stmt.assignments}
        count = table.update_where(
            self._predicate(table, stmt.source.alias, stmt.where), assignments
        )
        return self._done(count), None

    def _delete(self, stmt: ast.Delete):
        table = self._table(stmt.source)
        count = table.delete_where(self._predicate(table, stmt.source.alias, stmt.where))
        return self._done(count), None

    handlers = {
        **Executor.handlers,
        ast.CreateDatabase: "_create_database",
        ast.CreateTable: "_create_table",
        ast.CreateIndex: "_create_index",
        ast.DropTable: "_drop_table",
        ast.DropDatabase: "_drop_database",
        ast.Update: "_update",
        ast.Delete: "_delete",
    }


class _SelectPlanBuilder:
    """Compiles one SELECT over resolved tables (alias -> table).

    Without a statement it still resolves WHERE conjuncts, which is all
    UPDATE and DELETE need from it."""

    def __init__(
        self, tables: Dict[str, Table], base_alias: str, stmt: Optional[ast.Select] = None
    ) -> None:
        self.tables = tables
        self.base_alias = base_alias
        self.stmt = stmt

    def _slot(self, alias: str, name: str) -> str:
        """The key a column has in the rows flowing through the plan:
        base-table columns keep their stored name (scan batches flow
        through untouched), joined tables' columns are qualified."""
        return name if alias == self.base_alias else f"{alias}.{name}"

    def build(self, guards: List[Callable[[], bool]]) -> Plan:
        return Plan(self._root(), guards=tuple(guards))

    def _root(self):
        stmt = self.stmt
        node, residual = self._base_access(self.base_alias, list(stmt.where))
        for join in stmt.joins:
            node = self._join(node, join)
        for condition in residual:
            node = Filter(node, self._condition(condition))

        if stmt.count:
            # SELECT COUNT(*) counts the filtered set; ORDER BY/LIMIT are
            # ignored, as they always were on this fast path.
            return Aggregate(node, count_rows, "count(*)")
        if stmt.aggregates:
            return self._aggregate_tail(node)

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
        return Project(node, names, self._projection_desc(), labels)

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
        if access in (ACCESS_POINT, ACCESS_INDEX):
            detail = "eq_ref" if access == ACCESS_POINT else "secondary-index"
            index = None if access == ACCESS_POINT else right_name

            def probe_factory():
                def probe(key):
                    batches = right_table.get_batches((key,), index=index)
                    return [row for batch in batches for row in batch.rows()]

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
