"""The shared query kernel: operators, counters, planner rules, cache."""

import pytest

from repro.query import (
    ACCESS_INDEX,
    ACCESS_MULTIGET,
    ACCESS_PK_PREFIX,
    ACCESS_POINT,
    ACCESS_SCAN,
    Aggregate,
    Filter,
    FullScan,
    Limit,
    MultiGet,
    Plan,
    PlanCache,
    PointLookup,
    Project,
    PushedCondition,
    RowBatch,
    Sort,
    TableMeta,
    choose_access,
    count_rows,
    evaluate_aggregate,
    null_safe_key,
)
from repro.query.expr import compare
from repro.query.plan import _Context


class FakeTable:
    """Minimal storage shim speaking the kernel's leaf protocol."""

    def __init__(self, rows):
        self._rows = {row["id"]: row for row in rows}

    def get_batches(self, keys, index=None):
        found = [self._rows[key] for key in keys if key in self._rows]
        return [RowBatch(found)] if found else []

    def scan_batches(self, pushed=None):
        """Two row-backed batches, so multi-batch plumbing is exercised."""
        rows = list(self._rows.values())
        for chunk in (rows[:2], rows[2:]):
            batch = RowBatch(chunk)
            if pushed is not None:
                pushed.narrow(batch)
            yield batch


ROWS = [{"id": i, "val": i * 10} for i in range(5)]


def _ctx(params):
    return _Context(params)


class TestOperators:
    def test_point_lookup_counts(self):
        node = PointLookup(FakeTable(ROWS), lambda params: params[0], "t", "id")
        assert node.run((3,)) == [{"id": 3, "val": 30}]
        assert node.run((99,)) == []
        assert node.calls == 2 and node.rows_out == 1 and node.keys_batched == 2

    def test_multi_get_keeps_order_and_drops_missing(self):
        node = MultiGet(FakeTable(ROWS), lambda params: params[0], "t", "id")
        assert [r["id"] for r in node.run(([4, 0, 9],))] == [4, 0]
        assert node.keys_batched == 3

    def test_filter_sort_limit_pipeline(self):
        plan = Plan(
            Limit(
                Sort(
                    Filter(
                        FullScan(FakeTable(ROWS), "t"),
                        PushedCondition("val", ">=", lambda params: params[0], "val >= ?0"),
                    ),
                    key=lambda row: null_safe_key(row["val"]),
                    descending=True,
                    detail="val",
                ),
                count=2,
            )
        )
        assert [r["id"] for r in plan.run((20,))] == [4, 3]
        stats = {s.node: s for s in plan.operator_stats()}
        assert stats["FullScan"].rows_out == 5
        assert stats["Filter"].rows_in == 5 and stats["Filter"].rows_out == 3
        assert stats["Limit"].rows_out == 2

    def test_operators_exchange_batches_not_rows(self):
        # Filter narrows the selection vector in place; nothing is
        # copied and no row dict is built before run() asks for them.
        scan = FullScan(FakeTable(ROWS), "t")
        node = Filter(scan, PushedCondition("val", "<", lambda params: params[0], "val < ?0"))
        first, second = node.batches(_ctx((25,)))
        assert (first.n, first.sel) == (2, None)      # both rows pass: all selected
        assert (second.n, second.sel) == (3, [0])     # ids 2, 3, 4: only 2 passes
        assert list(second.values("id")) == [2]
        assert second.rows(("val",)) == [{"val": 20}]

    def test_project_is_applied_at_materialization(self):
        plan = Plan(Project(FullScan(FakeTable(ROWS), "t"), ("val",), "val", ("v",)))
        assert plan.run(())[:2] == [{"v": 0}, {"v": 10}]
        assert plan.columns(("id", "val")) == [[0, 1, 2, 3, 4], [0, 10, 20, 30, 40]]

    def test_limit_stops_pulling(self):
        scan = FullScan(FakeTable(ROWS), "t")
        plan = Plan(Limit(scan, 1))
        assert plan.run(()) == [ROWS[0]]
        assert scan.rows_out == 2  # the first batch only, not all five rows
        assert Plan(Limit(FullScan(FakeTable(ROWS), "t"), 0)).run(()) == []
        count = Plan(Aggregate(Limit(FullScan(FakeTable(ROWS), "t"), 3), count_rows, "count(*)"))
        assert count.run(()) == [{"count": 3}]

    def test_every_operator_executes_batches_and_nothing_else(self):
        # One execution path (docs/query_kernel.md): no operator carries
        # a row-list method beside batches(ctx).  test_repo_contracts.py
        # checks the source for the same.
        from repro.query import plan as plan_module

        operators = [
            cls for cls in vars(plan_module).values()
            if isinstance(cls, type) and issubclass(cls, plan_module.PlanNode)
            and not cls.__name__.startswith("_") and cls is not plan_module.PlanNode
        ]
        assert len(operators) == 10
        for cls in operators:
            assert "batches" in vars(cls), cls
            assert not hasattr(cls, "_execute") and not hasattr(cls, "rows"), cls

    def test_leaves_read_storage_through_batches_only(self):
        # Fetch beside scan (docs/query_kernel.md): storage has no
        # row-returning block read left for a leaf to ask.  The source
        # side (no leaf fetches rows, sqldb hands up columns, never
        # decoded rows) is checked once, in test_repo_contracts.py.
        from repro.nosqldb.sstable import SSTable

        for name in ("get", "get_many", "_decoded_block"):
            assert not hasattr(SSTable, name), name

    def test_reset_counters(self):
        plan = Plan(FullScan(FakeTable(ROWS), "t"))
        plan.run(())
        plan.reset_counters()
        assert all(s.calls == 0 and s.rows_out == 0 for s in plan.operator_stats())


class TestPlannerRules:
    META = TableMeta(
        name="t",
        primary_key=("a", "b"),
        indexed=frozenset({"x"}),
        supports_pk_prefix=True,
    )

    def test_single_pk_point_and_multiget(self):
        meta = TableMeta("t", ("id",), frozenset(), False)
        assert choose_access(meta, [("id", "=")]) == (ACCESS_POINT, 0)
        assert choose_access(meta, [("id", "IN")]) == (ACCESS_MULTIGET, 0)

    def test_pk_prefix_beats_index(self):
        assert choose_access(self.META, [("x", "="), ("a", "=")]) == (
            ACCESS_PK_PREFIX,
            1,
        )

    def test_indexed_equality(self):
        assert choose_access(self.META, [("x", "=")]) == (ACCESS_INDEX, 0)

    def test_everything_else_scans(self):
        assert choose_access(self.META, [("x", "<")]) == (ACCESS_SCAN, None)
        assert choose_access(self.META, []) == (ACCESS_SCAN, None)


class TestExpressions:
    def test_comparisons_reject_null(self):
        assert compare("=", None, 1) is False
        assert compare("ISNULL", None, None) is True
        assert compare("IN", 2, (1, 2)) is True

    def test_unknown_operator_raises(self):
        with pytest.raises(ValueError):
            compare("~", 1, 1)

    def test_aggregates(self):
        assert evaluate_aggregate("count", [1, None, 3]) == 3
        assert evaluate_aggregate("sum", []) is None
        assert evaluate_aggregate("avg", [1, 2]) == 1.5


class TestPlanCache:
    def test_guard_failure_counts_invalidation(self):
        cache = PlanCache()
        alive = [True]
        plan = Plan(FullScan(FakeTable(ROWS), "t"), guards=(lambda: alive[0],))
        cache.put("k", plan)
        assert cache.get("k") is plan
        alive[0] = False
        assert cache.get("k") is None
        stats = cache.stats()
        assert stats.invalidations == 1 and stats.entries == 0

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        for name in ("a", "b", "c"):
            cache.put(name, Plan(FullScan(FakeTable(ROWS), name)))
        assert cache.get("a") is None and cache.get("c") is not None
        assert cache.stats().entries == 2
