"""EXPLAIN ANALYZE: execute a plan and annotate EXPLAIN with actuals.

Operator counters are *cumulative* across executions (a cached plan
keeps accruing), so per-execution actuals are computed as before/after
deltas around one run.  The run itself goes through the engine's normal
execution path with the context's ``timed`` flag set, so wall/CPU
seconds accrue per operator even when ``REPRO_TRACE`` is off — and the
result rows are exactly what a plain execution would have produced.

The report reuses the EXPLAIN vocabulary verbatim — same nodes, same
ordering — and appends the actual columns :data:`ACTUAL_COLUMNS` to
every row.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.query.plan import Plan

#: Actual-value columns appended to every EXPLAIN row, in render order.
ACTUAL_COLUMNS = (
    "rows",
    "wall_ms",
    "cpu_ms",
    "cache_hits",
    "blocks_skipped",
    "rows_pruned",
)


def _snapshot_node(node) -> Dict[str, object]:
    return {
        "rows_out": node.rows_out,
        "seconds": node.seconds,
        "cpu_seconds": node.cpu_seconds,
        "blocks_cached": getattr(node, "blocks_cached", 0),
        "blocks_skipped": getattr(node, "blocks_skipped", 0),
        "rows_pruned": getattr(node, "rows_pruned", 0),
    }


def _annotate(plan: Plan, before: List[Dict], after: List[Dict]) -> List[Dict[str, object]]:
    """The EXPLAIN walk of :meth:`Plan.explain`, with actuals appended."""
    return [
        {
            "step": step,
            "node": node.kind,
            "table": node.table_name,
            "key": node.key_desc,
            "detail": node.detail(),
            "rows": a["rows_out"] - b["rows_out"],
            "wall_ms": (a["seconds"] - b["seconds"]) * 1000.0,
            "cpu_ms": (a["cpu_seconds"] - b["cpu_seconds"]) * 1000.0,
            "cache_hits": a["blocks_cached"] - b["blocks_cached"],
            "blocks_skipped": a["blocks_skipped"] - b["blocks_skipped"],
            "rows_pruned": a["rows_pruned"] - b["rows_pruned"],
        }
        for step, (node, b, a) in enumerate(
            zip(plan.root._postorder(), before, after), 1
        )
    ]


def snapshot_counters(plan: Plan) -> List[Dict[str, object]]:
    """Per-node counter snapshot in postorder; pair with
    :func:`annotate_explain` to frame one execution's actuals."""
    return [_snapshot_node(node) for node in plan.root._postorder()]


_ZERO = {
    "rows_out": 0,
    "seconds": 0.0,
    "cpu_seconds": 0.0,
    "blocks_cached": 0,
    "blocks_skipped": 0,
    "rows_pruned": 0,
}


def annotate_explain(
    plan: Plan, before: Optional[List[Dict[str, object]]] = None
) -> List[Dict[str, object]]:
    """The annotated EXPLAIN report from ``before`` (a
    :func:`snapshot_counters` result, or None meaning zeros — a
    freshly-built plan's cumulative counters) to the counters now."""
    after = snapshot_counters(plan)
    if before is None:
        before = [_ZERO] * len(after)
    return _annotate(plan, before, after)


class AnalyzedRun(NamedTuple):
    """One analyzed execution: the annotated report plus the statement's
    result rows (byte-identical to a plain run) and whole-plan totals."""

    report: List[Dict[str, object]]
    result_rows: List[Dict[str, object]]
    totals: Dict[str, object]


def analyze_plan(
    plan: Plan,
    params: Sequence = (),
    runner: Optional[Callable[[], List[Dict[str, object]]]] = None,
) -> AnalyzedRun:
    """Execute ``plan`` once with per-operator timing and report actuals.

    ``runner``, when given, must execute this same plan tree (timed) and
    return the final result rows — engines pass their normal
    plan-execution path so post-plan shaping (projection templates,
    limits) stays identical to an unanalyzed run.  Defaults to
    ``plan.run(params, timed=True)``.
    """
    nodes = plan.root._postorder()
    before = [_snapshot_node(node) for node in nodes]
    if runner is None:
        result_rows = plan.run(params, timed=True)
    else:
        result_rows = runner()
    after = [_snapshot_node(node) for node in nodes]
    report = _annotate(plan, before, after)
    root_b, root_a = before[-1], after[-1]
    totals = {
        "rows": len(result_rows),
        "wall_s": root_a["seconds"] - root_b["seconds"],
        "cpu_s": root_a["cpu_seconds"] - root_b["cpu_seconds"],
        "cache_hits": sum(a["blocks_cached"] - b["blocks_cached"]
                          for b, a in zip(before, after)),
        "blocks_skipped": sum(a["blocks_skipped"] - b["blocks_skipped"]
                              for b, a in zip(before, after)),
        "rows_pruned": sum(a["rows_pruned"] - b["rows_pruned"]
                           for b, a in zip(before, after)),
    }
    return AnalyzedRun(report=report, result_rows=result_rows, totals=totals)


class AnalyzedStatement:
    """Plan-cache entry for an ``EXPLAIN ANALYZE`` statement.

    Wraps the compiled plan of the underlying SELECT (cached under the
    full ``EXPLAIN ANALYZE ...`` text, so a warm re-analyze skips parse
    and plan).  Exposes ``guards`` so :meth:`PlanCache.get` revalidates
    it exactly like a bare :class:`Plan`.  ``meta`` is the engine's
    private companion state (result shaping), as on :class:`Plan`.
    """

    __slots__ = ("plan", "meta")

    def __init__(self, plan: Plan, meta=None) -> None:
        self.plan = plan
        self.meta = meta

    @property
    def guards(self):
        return self.plan.guards

    def __repr__(self) -> str:
        return f"AnalyzedStatement({self.plan!r})"


def counter_totals(plan: Plan) -> Dict[str, int]:
    """Cumulative cache/pushdown counters summed over the plan's
    operators — the query log diffs these around an execution."""
    cache_hits = blocks_skipped = rows_pruned = 0
    for node in plan.root._postorder():
        cache_hits += getattr(node, "blocks_cached", 0)
        blocks_skipped += getattr(node, "blocks_skipped", 0)
        rows_pruned += getattr(node, "rows_pruned", 0)
    return {
        "cache_hits": cache_hits,
        "blocks_skipped": blocks_skipped,
        "rows_pruned": rows_pruned,
    }


def record_query(
    log,
    text: str,
    dialect: str,
    seconds: float,
    rows: int,
    plan: Optional[Plan] = None,
    before: Optional[Dict[str, int]] = None,
    analyzed: Optional[AnalyzedRun] = None,
    epoch: int = 0,
) -> None:
    """Append one :class:`repro.telemetry.querylog.QueryRecord`.

    Shared by both engines' sessions so the record shape stays
    identical across dialects.  ``before`` is a :func:`counter_totals`
    snapshot taken before the execution (omitted for freshly-built
    plans, whose cumulative counters *are* this execution); ``analyzed``
    short-circuits to the AnalyzedRun's already-computed totals.
    Callers gate on ``log.enabled`` before doing any of this work.
    """
    if analyzed is not None:
        totals = analyzed.totals
        log.record(
            text, dialect, seconds, rows=rows,
            cache_hits=totals["cache_hits"],
            blocks_skipped=totals["blocks_skipped"],
            rows_pruned=totals["rows_pruned"], epoch=epoch,
        )
        return
    if isinstance(plan, AnalyzedStatement):
        plan = plan.plan
    if isinstance(plan, Plan):
        totals = counter_totals(plan)
        if before is None:
            before = {"cache_hits": 0, "blocks_skipped": 0, "rows_pruned": 0}
        log.record(
            text, dialect, seconds, rows=rows,
            cache_hits=totals["cache_hits"] - before["cache_hits"],
            blocks_skipped=totals["blocks_skipped"] - before["blocks_skipped"],
            rows_pruned=totals["rows_pruned"] - before["rows_pruned"],
            epoch=epoch,
        )
        return
    log.record(text, dialect, seconds, rows=rows, epoch=epoch)
