"""Conditions evaluated a column at a time, in storage or in a Filter.

A WHERE conjunct reaches execution as a :class:`PushedCondition` —
``(column, op, resolve)`` plus its EXPLAIN text.  The planner moves the
storage-evaluable ones (:data:`PUSHABLE_OPS`) *into* ``FullScan`` /
``IndexScan`` as a :class:`PushedPredicate`; the access node hands a
per-execution :class:`BoundPredicate` to the table's
``scan_batches(pushed)``, as a SQL UPDATE or DELETE does with its whole
WHERE clause to find its rows.  The rest stay
:class:`~repro.query.plan.Filter` nodes.  Both are evaluated by the one
evaluator here, :func:`select`: it reads a column of a
:class:`~repro.query.batch.Batch` and narrows the batch's selection
vector — no row is built to test it.

A storage layer exploits a bound predicate in decreasing strength:

1. **block skipping** — columnar SSTable blocks carry per-column zone
   maps; :meth:`BoundPredicate.block_may_match` proves a whole block
   cannot contribute and the reader never even decodes it;
2. **vector evaluation** — :meth:`BoundPredicate.narrow` evaluates the
   conditions on the batch's needed columns only (typed vectors of a
   columnar block; decoded rows of a memtable or a B-tree leaf) and counts what it pruned once per batch.

Semantics are those of :func:`~repro.query.expr.compare` applied per
row: conditions in order, a later condition only evaluated where the
earlier ones hold, NULL-rejecting — so pushed and unpushed plans return
identical answers.
"""

from __future__ import annotations

import operator
from typing import Callable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.telemetry import get_registry

_REGISTRY = get_registry()
_M_ROWS_PRUNED = _REGISTRY.counter(
    "query_pushdown_rows_pruned_total",
    "rows discarded inside the storage layer by pushed-down predicates",
)

#: Operators a storage layer can evaluate (and zone maps can reason
#: about).  ``ISNULL``/``NOTNULL`` stay in kernel Filters: SQL NULL
#: tests are rare and their zone semantics are subtle.
PUSHABLE_OPS = frozenset({"=", "!=", "<", ">", "<=", ">=", "IN"})


class PushedCondition(NamedTuple):
    """One WHERE condition in planner-compiled form (pushed into the
    access path, or carried by a :class:`~repro.query.plan.Filter`)."""

    column: str
    op: str
    resolve: Callable  # params -> expected value (list for IN)
    desc: str          # dialect-rendered text for EXPLAIN


class PushedPredicate:
    """An immutable conjunction of pushable conditions, attached to an
    access node at plan time.  Parameter markers resolve at execution
    via :meth:`bind`."""

    __slots__ = ("conditions",)

    def __init__(self, conditions: Tuple[PushedCondition, ...]) -> None:
        self.conditions = tuple(conditions)

    def bind(self, params) -> "BoundPredicate":
        """Resolve parameter markers for one execution."""
        return BoundPredicate(
            tuple(
                (cond.column, cond.op, cond.resolve(params))
                for cond in self.conditions
            )
        )

    def describe(self) -> str:
        """EXPLAIN rendering, e.g. ``key = ?1 AND measure > 0``."""
        return " AND ".join(cond.desc for cond in self.conditions)

    def __repr__(self) -> str:
        return f"PushedPredicate({self.describe()!r})"


class BoundPredicate:
    """A pushed predicate with parameters resolved, plus the pruning
    counters the storage layer fills in while scanning."""

    __slots__ = ("conditions", "blocks_skipped", "rows_pruned")

    def __init__(self, conditions: Tuple[Tuple[str, str, object], ...]) -> None:
        self.conditions = conditions
        self.blocks_skipped = 0
        self.rows_pruned = 0

    def narrow(self, batch) -> None:
        """Narrow ``batch.sel`` to the rows satisfying the predicate and
        count the pruned ones (one counter update per batch)."""
        pruned = narrow(batch, self.conditions)
        if pruned:
            self.note_pruned(pruned)

    def block_may_match(self, zones: Mapping) -> bool:
        """Can any row in a block with these zone maps satisfy the
        predicate?  ``zones`` maps column name to ``(lo, hi, distinct)``
        where ``distinct`` is an exact frozenset of the block's values
        (or None when cardinality exceeded the tracking cap) and an
        all-NULL column is ``(None, None, frozenset())``.  Columns
        absent from ``zones`` are unknown and assumed to match."""
        for column, op, expected in self.conditions:
            zone = zones.get(column)
            if zone is None:
                continue
            try:
                if not _zone_may_match(zone, op, expected):
                    return False
            except TypeError:
                continue  # incomparable constant: cannot prune
        return True

    def note_skipped(self, blocks: int = 1) -> None:
        self.blocks_skipped += blocks

    def note_pruned(self, rows: int) -> None:
        self.rows_pruned += rows
        _M_ROWS_PRUNED.inc(rows)


_ORDERED = {
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}


def select(op: str, vector: Sequence, expected,
           sel: Optional[List[int]] = None) -> List[int]:
    """The ascending positions of ``vector`` — among ``sel``, or all of
    them — whose value satisfies ``value OP expected``.

    Exactly :func:`~repro.query.expr.compare` per value, evaluated over
    a whole column.  Raises ValueError for an unknown operator.
    """
    if op == "=":
        if expected is None:
            return []  # compare("=", x, None) is never true
        if sel is not None:
            return [i for i in sel if vector[i] == expected]
        # Equality on a low-cardinality column (schema ids, flags) mostly
        # keeps or drops a whole block: count first, at C speed.  (NaN
        # never equals itself, but list.count matches it by identity.)
        hits = vector.count(expected) if expected == expected else 0
        if hits == len(vector):
            return list(range(hits))
        if not hits:
            return []
        return [i for i, value in enumerate(vector) if value == expected]
    test = _ORDERED.get(op)
    if test is not None:
        if sel is None:
            return [
                i for i, value in enumerate(vector)
                if value is not None and test(value, expected)
            ]
        return [
            i for i in sel
            if vector[i] is not None and test(vector[i], expected)
        ]
    if op == "IN":
        try:
            expected = frozenset(expected)
        except TypeError:
            pass  # unhashable members: linear membership as-is
        if sel is None:
            return [i for i, value in enumerate(vector) if value in expected]
        return [i for i in sel if vector[i] in expected]
    if op not in ("ISNULL", "NOTNULL"):
        raise ValueError(f"unsupported comparison operator {op!r}")
    null = op == "ISNULL"
    if sel is None:
        return [i for i, value in enumerate(vector) if (value is None) is null]
    return [i for i in sel if (vector[i] is None) is null]


def narrow(batch, conditions) -> int:
    """Narrow ``batch.sel`` by bound ``(column, op, expected)``
    conditions, in order; returns how many selected rows were dropped.

    A later condition only sees the positions the earlier ones kept —
    the per-row short-circuit of a Filter chain."""
    sel = batch.sel
    before = batch.n if sel is None else len(sel)
    for column, op, expected in conditions:
        if sel is not None and not sel:
            break
        sel = select(op, batch.column(column), expected, sel)
    if sel is None:
        return 0
    kept = len(sel)
    batch.sel = None if kept == batch.n else sel
    return before - kept


def _zone_may_match(zone, op: str, expected) -> bool:
    lo, hi, distinct = zone
    if op == "IN":
        members = list(expected)
        if any(member is None for member in members):
            return True  # NULL member: compare() semantics, cannot prune
        if distinct is not None:
            return any(member in distinct for member in members)
        if lo is None:
            return False  # all-NULL block column matches nothing
        return any(lo <= member <= hi for member in members)
    if op == "=":
        if expected is None:
            return False  # compare("=", x, None) is never true
        if distinct is not None:
            return expected in distinct
        if lo is None:
            return False
        return lo <= expected <= hi
    if op == "!=":
        if distinct is not None:
            return any(value != expected for value in distinct)
        if lo is None:
            return False
        return not (lo == hi == expected)
    if lo is None:
        return False  # ordered comparison against an all-NULL column
    if expected is None:
        return False
    if op == "<":
        return lo < expected
    if op == "<=":
        return lo <= expected
    if op == ">":
        return hi > expected
    if op == ">=":
        return hi >= expected
    return True  # unknown operator: never prune
