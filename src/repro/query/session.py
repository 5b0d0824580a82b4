"""The one client session both engines hand out.

``parse -> plan -> run``: a statement text is parsed by the dialect,
SELECTs (and ``EXPLAIN ANALYZE``) compile to kernel plans memoised in the
session's :class:`~repro.query.planner.PlanCache`, everything else runs
through the dialect's generic executor.  Bulk DML ("the DWARF cubes were
inserted in bulk", paper §5) goes through :meth:`Session.execute_many`:
a prepared INSERT, or a DELETE naming rows by their whole primary key,
resolves once to a :class:`WriteTemplate`, cached under the same
``(namespace, text)`` key and table guard as SELECT plans, and its
parameters reach the engine's one bulk write loop (``insert_columns``)
or bulk key delete (``delete_keys``) as one :class:`Columns` batch —
one sequence per bind marker.

What differs between SQL and CQL is declared in a :class:`Dialect`
value; the engine packages subclass :class:`Session` only to attach it
and to name the namespace attribute (``database`` / ``keyspace``).
"""

from __future__ import annotations

from itertools import repeat
from typing import (
    Callable, Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.query.analyze import (
    AnalyzedStatement,
    analyze_plan,
    counter_totals,
    record_query,
)
from repro.query.expr import Placeholder, compile_value
from repro.query.plan import Plan
from repro.query.planner import PlanCache, table_guard
from repro.query.result import ResultSet
from repro.query.syntax import Delete, Explain, Insert, Select, TableRef, Truncate, Use
from repro.telemetry import get_query_log, wall_clock

_QUERY_LOG = get_query_log()


class Dialect(NamedTuple):
    """Everything the session needs to know about one query language."""

    #: Query-log dialect label (``"sql"`` / ``"cql"``).
    label: str
    #: ``parse(text) -> statement``.
    parse: Callable[[str], object]
    #: The engine's :class:`Executor` subclass.
    executor: type
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


class WriteTemplate:
    """Plan-cache entry of a prepared INSERT or key DELETE.

    ``write(batch)`` binds a :class:`Columns` batch against the slots
    resolved at plan time and feeds it into ``table``'s bulk write loop
    or bulk key delete, returning the count written or deleted.
    ``guards`` revalidate ``table`` on every cache hit, so DDL
    re-resolves the template instead of writing into a dropped table
    object.
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


class Executor:
    """Runs one parsed statement against an engine: the generic half of
    a dialect's binding to the kernel.

    The base resolves bind markers and namespaces, dispatches on the
    statement class and handles the statements both engines treat
    alike: SELECT, EXPLAIN, USE, TRUNCATE and INSERT.  An engine
    subclass sets the class attributes below, implements
    :meth:`select_plan`, :meth:`_writer` and :meth:`_key_columns`, and
    adds its DDL and its UPDATE/DELETE semantics to :attr:`handlers`.
    """

    #: The engine's request error (``ProgrammingError`` / ``InvalidRequest``).
    error: type
    #: The result class wrapping a plan's rows.
    result: type = ResultSet
    #: Error for a table named with no namespace while none is in use,
    #: formatted with the table name.
    no_namespace: str
    #: Statement class -> the method running it.
    handlers: Dict[type, str] = {
        Select: "_select",
        Explain: "_explain",
        Use: "_use",
        Truncate: "_truncate",
        Insert: "_insert",
    }

    def __init__(self, engine, params: Sequence = (), namespace: Optional[str] = None) -> None:
        self.engine = engine
        self.params = tuple(params)
        self.namespace = namespace

    @staticmethod
    def lookup(engine, name: str):
        """The engine's namespace (database / keyspace) called ``name``;
        raises the engine's error when there is none."""
        raise NotImplementedError

    def select_plan(self, statement: Select) -> Plan:
        """Compile a SELECT into a kernel plan; all statement-shape
        validation happens here."""
        raise NotImplementedError

    def _writer(self, table, columns: Sequence[str], values: Sequence):
        """The ``write(Columns) -> count`` of a one-row INSERT's bulk
        template, or None when only :meth:`run` can execute it."""
        raise NotImplementedError

    def run(self, statement) -> Tuple[object, Optional[str]]:
        """Execute ``statement``; returns ``(result, new_namespace)``,
        the namespace set only by USE."""
        handler = self.handlers.get(type(statement))
        if handler is None:
            raise self.error(f"unsupported statement {type(statement).__name__}")
        return getattr(self, handler)(statement)

    def _done(self, rowcount: int = 0):
        """What a statement that returns no rows hands back."""
        return self.result(rowcount=rowcount)

    # -- resolution -----------------------------------------------------------
    def _resolve(self, value):
        return compile_value(value, self.error)(self.params)

    def _namespace(self, source: TableRef, missing: str):
        """The namespace ``source`` names, else the one in use; raises
        ``missing`` when neither is set."""
        name = source.namespace or self.namespace
        if name is None:
            raise self.error(missing)
        return self.lookup(self.engine, name)

    def _table(self, source: TableRef):
        return self._namespace(source, self.no_namespace.format(source.table)).table(source.table)

    def _guarded(self, source: TableRef):
        """``(table, guard)``: ``source`` resolved, plus a plan-cache
        guard that re-resolves it on every hit."""
        table = self._table(source)
        engine, lookup = self.engine, self.lookup
        name, table_name = source.namespace or self.namespace, source.table
        return table, table_guard(lambda: lookup(engine, name).table(table_name), table)

    # -- the statements both engines share -------------------------------------
    def _select(self, statement: Select):
        return self.result(self.select_plan(statement).run(self.params)), None

    def _explain(self, statement: Explain):
        """The plan, one row per operator.  EXPLAIN ANALYZE runs in
        :meth:`Session._run_analyzed`, where its plan is cached."""
        return self.result(self.select_plan(statement.select).explain()), None

    def _use(self, statement: Use):
        self.lookup(self.engine, statement.name)  # validates existence
        return self._done(), statement.name

    def _truncate(self, statement: Truncate):
        self._table(statement.source).truncate()
        return self._done(), None

    def _insert(self, statement: Insert):
        reject_repeated_columns(statement.columns, self.error)
        table = self._table(statement.source)
        for column in statement.columns:
            table.column(column)  # a name the table lacks fails, NULL or not
        count = 0
        for values in statement.rows:
            row = {}
            for column, value in zip(statement.columns, values):
                resolved = self._resolve(value)
                if resolved is not None:  # NULL is stored as an absent value
                    row[column] = resolved
            table.insert(row)
            count += 1
        return self._done(count), None

    def write_template(self, statement) -> Optional[WriteTemplate]:
        """Resolve a one-row INSERT or a key DELETE once, for
        :meth:`Session.execute_many`: the table and its slots are
        resolved here, so bulk execution only binds parameters.  None
        for any other statement, for one with no resolvable namespace,
        or when :meth:`_writer` or :meth:`_key_deleter` declines — those
        run through :meth:`run`."""
        insert = isinstance(statement, Insert)
        if not (insert and len(statement.rows) == 1 or isinstance(statement, Delete)):
            return None
        if insert:
            reject_repeated_columns(statement.columns, self.error)
        if (statement.source.namespace or self.namespace) is None:
            return None
        table, guard = self._guarded(statement.source)
        write = (self._writer(table, statement.columns, statement.rows[0]) if insert
                 else self._key_deleter(table, statement))
        return None if write is None else WriteTemplate(table, write, (guard,))

    def _key_columns(self, table, statement: Delete) -> Tuple[Sequence[str], list]:
        """``table``'s primary-key column names in key order, and the
        column each WHERE conjunct names (None for one the dialect would
        not resolve to ``table``)."""
        raise NotImplementedError

    def _key_deleter(self, table, statement: Delete):
        """The ``write(Columns) -> count`` of a DELETE whose WHERE binds
        every primary-key column with ``= ?`` and nothing else, handing
        the batch's key columns to ``table.delete_keys``; else None."""
        key, names = self._key_columns(table, statement)
        slots = {}
        for name, condition in zip(names, statement.where):
            if condition.op != "=" or not isinstance(condition.value, Placeholder) or name in slots:
                return None
            slots[name] = condition.value.index
        if set(slots) != set(key):
            return None
        markers = [slots[name] for name in key]

        def write(batch: Columns) -> int:
            if not batch.n:
                return 0
            keys = [batch.values[j] for j in markers]
            return table.delete_keys(keys[0] if len(keys) == 1 else list(zip(*keys)))

        return write


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
            return self.dialect.executor.result(plan.run(params))
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
            return self.dialect.executor.result(plan.run(params))
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
            result = self.dialect.executor.result(plan.run(params))
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
        if statement is None:
            statement = self.dialect.parse(text)
        executor = self.dialect.executor(self.engine, params, self.namespace)
        if isinstance(statement, Select):
            plan = executor.select_plan(statement)
            self.plan_cache.put((self.namespace, text), plan)
            return executor.result(plan.run(params))
        if isinstance(statement, Explain) and statement.analyze:
            entry = AnalyzedStatement(executor.select_plan(statement.select))
            self.plan_cache.put((self.namespace, text), entry)
            return self._run_analyzed(entry, params)
        result, new_namespace = executor.run(statement)
        if new_namespace is not None:
            self.namespace = new_namespace
        return result

    def _run_analyzed(self, entry: AnalyzedStatement, params: Sequence):
        analyzed = analyze_plan(entry.plan, params)
        result = self.dialect.executor.result(analyzed.report)
        result.analyzed = analyzed
        return result

    def execute_many(self, prepared: PreparedStatement,
                     rows: Union[Columns, Iterable[Sequence]]) -> int:
        """Run one prepared DML statement per parameter row; returns the count.

        ``rows`` is a :class:`Columns` batch, or parameter rows, which
        are transposed into one.  A plain INSERT or a key DELETE hands
        the batch to its cached :class:`WriteTemplate`; any other
        statement runs the generic executor once per row.  Raises the
        dialect's request/integrity errors; rows written before a
        failing one stay written.
        """
        t0 = wall_clock() if _QUERY_LOG.enabled else 0.0
        batch = rows if isinstance(rows, Columns) else Columns.of(rows)
        dialect = self.dialect
        key = (self.namespace, prepared.text)
        template = self.plan_cache.get(key)
        if not isinstance(template, WriteTemplate):
            template = dialect.executor(self.engine, (), self.namespace).write_template(
                prepared.statement
            )
            if template is not None:
                self.plan_cache.put(key, template)
        if template is not None:
            count = template.write(batch)
            written = (template.table,)
        else:
            count = 0
            for params in batch.rows():
                dialect.executor(self.engine, params, self.namespace).run(prepared.statement)
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
