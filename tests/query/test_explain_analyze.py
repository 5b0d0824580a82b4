"""EXPLAIN ANALYZE: actuals annotated onto the EXPLAIN vocabulary,
with result rows byte-identical to a plain run.

Hypothesis drives the same query shapes as the engine-equivalence suite
through both engines and insists that the
analyzed run's ``result_rows`` equal the plain run's rows *exactly*
(same engine, same plan — list equality, not multisets), that the
annotated report is the plain EXPLAIN with the actual columns appended,
and that running under ANALYZE never perturbs a subsequent plain run.
"""

from hypothesis import given, settings

from repro.query import ACTUAL_COLUMNS
from tests.query.test_engine_equivalence import (
    build_sessions,
    query_strategy,
    render,
    rows_strategy,
)

_EXPLAIN_KEYS = ("step", "node", "table", "key", "detail")


def vocabulary(report):
    """The annotated report with the actual columns stripped back off."""
    return [{k: row[k] for k in _EXPLAIN_KEYS} for row in report]


@given(rows=rows_strategy, query=query_strategy)
@settings(max_examples=40, deadline=None)
def test_analyzed_rows_byte_identical_both_engines(rows, query):
    sql, cql = build_sessions(rows, indexed=False)
    sql_text, cql_text, _ = render(query)
    for session, text in ((sql, sql_text), (cql, cql_text)):
        plain = session.execute(text).rows
        analyzed = session.execute(f"EXPLAIN ANALYZE {text}").analyzed
        assert analyzed.result_rows == plain
        assert analyzed.totals["rows"] == len(plain)
        # the report is the EXPLAIN vocabulary plus actuals
        assert vocabulary(analyzed.report) == session.execute(
            f"EXPLAIN {text}"
        ).rows
        for row in analyzed.report:
            assert set(ACTUAL_COLUMNS) <= set(row)
        # analyzing must not perturb later plain executions
        assert session.execute(text).rows == plain


@given(rows=rows_strategy, query=query_strategy)
@settings(max_examples=25, deadline=None)
def test_warm_reanalyze_replays_identically(rows, query):
    """The second EXPLAIN ANALYZE hits the cached AnalyzedStatement and
    still frames per-execution actuals (cumulative counters diffed)."""
    sql, cql = build_sessions(rows, indexed=False)
    sql_text, cql_text, _ = render(query)
    for session, text in ((sql, sql_text), (cql, cql_text)):
        statement = f"EXPLAIN ANALYZE {text}"
        cold = session.execute(statement).analyzed
        warm = session.execute(statement).analyzed
        assert session.plan_cache.stats().hits >= 1
        assert warm.result_rows == cold.result_rows
        # actuals are per-execution deltas, so a warm rerun of the same
        # statement reports the same row counts, not doubled ones
        assert [r["rows"] for r in warm.report] == [
            r["rows"] for r in cold.report
        ]


def test_report_rows_are_the_result_rows():
    """``.rows`` of an EXPLAIN ANALYZE execution is the report (like
    EXPLAIN), while ``.analyzed.result_rows`` carries the query answer."""
    sql, cql = build_sessions([("g0", 1), ("g1", 2)], indexed=False)
    for session in (sql, cql):
        result = session.execute("EXPLAIN ANALYZE SELECT * FROM t WHERE id = 0")
        assert result.rows == result.analyzed.report
        assert result.analyzed.result_rows == [{"id": 0, "grp": "g0", "val": 1}]


def test_timing_accrues_even_with_tracing_off():
    sql, _ = build_sessions([("g0", 1)], indexed=False)
    analyzed = sql.execute("EXPLAIN ANALYZE SELECT * FROM t").analyzed
    root = analyzed.report[-1]
    assert root["wall_ms"] >= 0.0
    assert root["cpu_ms"] >= 0.0
    assert analyzed.totals["wall_s"] >= 0.0
