"""The one client session both engines hand out.

``parse -> plan -> run``: a statement text is parsed by the dialect,
SELECTs (and ``EXPLAIN ANALYZE``) compile to kernel plans memoised in the
session's :class:`~repro.query.planner.PlanCache`, everything else runs
through the dialect's generic executor.  Bulk DML ("the DWARF cubes were
inserted in bulk", paper §5) goes through :meth:`Session.execute_many`:
a prepared INSERT resolves once to an :class:`InsertTemplate`, cached
under the same ``(namespace, text)`` key and table guard as SELECT
plans, and its parameters reach the engine's single bulk write loop as
one :class:`Columns` batch — one sequence per bind marker.

What differs between SQL and CQL is declared in a :class:`Dialect`
value; the engine packages subclass :class:`Session` only to attach it
and to name the namespace attribute (``database`` / ``keyspace``).
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple, Union

from repro.query.analyze import (
    AnalyzedStatement,
    analyze_plan,
    counter_totals,
    record_query,
)
from repro.query.plan import Plan
from repro.query.planner import PlanCache
from repro.telemetry import get_query_log, wall_clock

_QUERY_LOG = get_query_log()


class Dialect(NamedTuple):
    """Everything the session needs to know about one query language."""

    #: Query-log dialect label (``"sql"`` / ``"cql"``).
    label: str
    #: ``parse(text) -> statement``.
    parse: Callable[[str], object]
    #: The AST classes of SELECT and EXPLAIN statements.
    select: type
    explain: type
    #: ``build_select_plan(engine, select, namespace) -> Plan``.
    build_select_plan: Callable
    #: The generic executor:
    #: ``execute(engine, statement, params, namespace) -> (result, new_namespace)``.
    execute: Callable
    #: ``insert_template(engine, statement, namespace)`` -> an
    #: :class:`InsertTemplate`, or None for statements only the generic
    #: executor can run.
    insert_template: Callable
    #: The result class wrapping a plan's rows.
    result: type
    #: ``tables(engine, namespace)`` -> the namespace's live tables
    #: (empty when it is unset or dropped).
    tables: Callable
    #: The ``REPRO_CHECK`` post-bulk hook, ``check(tables, label)``.
    check: Callable


class PreparedStatement:
    """A parsed statement with ``?`` bind markers, reusable across executions."""

    __slots__ = ("text", "statement")

    def __init__(self, text: str, statement) -> None:
        self.text = text
        self.statement = statement

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text!r})"


class Columns(NamedTuple):
    """A column batch: ``n`` parameter rows held as one sequence per
    bind marker — ``values[j][i]`` is row ``i``'s value for marker
    ``j`` — the one shape :meth:`Session.execute_many` hands an engine."""

    n: int
    values: Tuple[Sequence, ...]

    @classmethod
    def of(cls, rows: Iterable[Sequence]) -> "Columns":
        """Parameter rows transposed.  The batch is as wide as its
        shortest row."""
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        return cls(len(rows), tuple(zip(*rows)))

    def rows(self) -> Iterator[tuple]:
        """The parameter rows again."""
        return zip(*self.values) if self.values else repeat((), self.n)


class InsertTemplate:
    """Plan-cache entry of a prepared INSERT.

    ``write(batch)`` binds a :class:`Columns` batch against the column
    slots resolved at plan time and feeds it into ``table``'s bulk write
    loop, returning the count written.  ``guards`` revalidate ``table``
    on every cache hit, so DDL re-resolves the template instead of
    writing into a dropped table object.
    """

    __slots__ = ("table", "write", "guards")

    def __init__(self, table, write: Callable[[Columns], int], guards) -> None:
        self.table = table
        self.write = write
        self.guards = guards


def reject_repeated_columns(columns: Sequence[str], error: type) -> None:
    """Refuse an INSERT column list that names a column twice (a row
    holds one value per column; Cassandra and MySQL both reject it).

    Raises ``error``, the dialect's invalid-statement exception class.
    """
    seen = set()
    for name in columns:
        if name in seen:
            raise error(f"INSERT names column {name!r} more than once")
        seen.add(name)


class Session:
    """A connection to one engine with an optional current namespace.

    A warm statement skips the parser and the planner entirely: one
    plan-cache lookup, one type check, then the compiled operator tree.
    Cached entries carry guards that revalidate the resolved tables
    (identity, index signature) on every hit, so DDL
    invalidates them instead of silently replaying stale access paths.
    """

    dialect: Dialect

    def __init__(self, engine, namespace: Optional[str] = None) -> None:
        self.engine = engine
        self.namespace = namespace
        self.plan_cache = PlanCache()

    def prepare(self, text: str) -> PreparedStatement:
        """Parse ``text`` once; raises the dialect's syntax error."""
        return PreparedStatement(text, self.dialect.parse(text))

    def execute(self, text: str, params: Sequence = ()):
        """Parse, plan and run one statement.

        Raises the dialect's syntax error for unparseable text and its
        request error (``ProgrammingError`` / ``InvalidRequest``) for
        statements the engine rejects.
        """
        if _QUERY_LOG.enabled:
            return self._execute_logged(text, None, params)
        plan = self.plan_cache.get((self.namespace, text))
        if isinstance(plan, Plan):
            return self.dialect.result(plan.run(params))
        return self._run_cold(plan, None, text, params)

    def execute_prepared(self, prepared: PreparedStatement, params: Sequence = ()):
        """Run a prepared statement with ``params`` bound to its markers.

        Raises the dialect's request error for statements the engine
        rejects.
        """
        if _QUERY_LOG.enabled:
            return self._execute_logged(prepared.text, prepared.statement, params)
        plan = self.plan_cache.get((self.namespace, prepared.text))
        if isinstance(plan, Plan):
            return self.dialect.result(plan.run(params))
        return self._run_cold(plan, prepared.statement, prepared.text, params)

    def _execute_logged(self, text: str, statement, params: Sequence):
        """The execute body with query-history recording.

        A separate method so the REPRO_QUERY_LOG=0 hot path above pays
        exactly one attribute check and allocates nothing extra."""
        t0 = wall_clock()
        label = self.dialect.label
        key = (self.namespace, text)
        plan = self.plan_cache.get(key)
        if isinstance(plan, Plan):
            before = counter_totals(plan)
            result = self.dialect.result(plan.run(params))
            record_query(_QUERY_LOG, text, label, wall_clock() - t0,
                         len(result), plan=plan, before=before)
            return result
        result = self._run_cold(plan, statement, text, params)
        # A cold SELECT was just compiled and cached; its fresh counters
        # are exactly this execution's actuals (an EXPLAIN ANALYZE carries
        # its own).  peek() keeps the read out of the hit/miss metrics.
        record_query(_QUERY_LOG, text, label, wall_clock() - t0,
                     len(result) if result is not None else 0,
                     plan=self.plan_cache.peek(key),
                     analyzed=getattr(result, "analyzed", None))
        return result

    def _run_cold(self, entry, statement, text: str, params: Sequence):
        """Everything but a warm SELECT: a cached EXPLAIN ANALYZE, or a
        statement still to parse, plan-and-cache or hand to the generic
        executor."""
        if isinstance(entry, AnalyzedStatement):
            return self._run_analyzed(entry, params)
        dialect = self.dialect
        if statement is None:
            statement = dialect.parse(text)
        kind = type(statement)
        if kind is dialect.select:
            plan = dialect.build_select_plan(self.engine, statement, self.namespace)
            self.plan_cache.put((self.namespace, text), plan)
            return dialect.result(plan.run(params))
        if kind is dialect.explain and statement.analyze:
            entry = AnalyzedStatement(
                dialect.build_select_plan(self.engine, statement.select, self.namespace)
            )
            self.plan_cache.put((self.namespace, text), entry)
            return self._run_analyzed(entry, params)
        result, new_namespace = dialect.execute(
            self.engine, statement, params, self.namespace
        )
        if new_namespace is not None:
            self.namespace = new_namespace
        return result

    def _run_analyzed(self, entry: AnalyzedStatement, params: Sequence):
        analyzed = analyze_plan(entry.plan, params)
        result = self.dialect.result(analyzed.report)
        result.analyzed = analyzed
        return result

    def execute_many(self, prepared: PreparedStatement,
                     rows: Union[Columns, Iterable[Sequence]]) -> int:
        """Run one prepared DML statement per parameter row; returns the count.

        ``rows`` is a :class:`Columns` batch, or parameter rows, which
        are transposed into one.  A plain INSERT hands the batch to its
        cached :class:`InsertTemplate`; any other statement runs the
        generic executor once per row.  Raises the dialect's
        request/integrity errors; rows written before a failing one stay
        written.
        """
        t0 = wall_clock() if _QUERY_LOG.enabled else 0.0
        batch = rows if isinstance(rows, Columns) else Columns.of(rows)
        dialect = self.dialect
        key = (self.namespace, prepared.text)
        template = self.plan_cache.get(key)
        if not isinstance(template, InsertTemplate):
            template = dialect.insert_template(
                self.engine, prepared.statement, self.namespace
            )
            if template is not None:
                self.plan_cache.put(key, template)
        if template is not None:
            count = template.write(batch)
            written = (template.table,)
        else:
            count = 0
            for params in batch.rows():
                dialect.execute(self.engine, prepared.statement, params, self.namespace)
                count += 1
            written = dialect.tables(self.engine, self.namespace)
        dialect.check(written, f"execute_many[{prepared.text}]")
        if _QUERY_LOG.enabled:
            # One record per batch: rows = parameter rows executed.
            record_query(_QUERY_LOG, prepared.text, dialect.label,
                         wall_clock() - t0, count)
        return count

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.namespace!r})"
