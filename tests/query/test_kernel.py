"""The shared query kernel: operators, counters, planner rules, cache."""

import pytest

from repro.dwarf.stats import describe
from repro.query import (
    ACCESS_INDEX,
    ACCESS_MULTIGET,
    ACCESS_PK_PREFIX,
    ACCESS_POINT,
    ACCESS_SCAN,
    Filter,
    FullScan,
    Limit,
    MultiGet,
    Plan,
    PlanCache,
    PointLookup,
    Sort,
    TableMeta,
    choose_access,
    evaluate_aggregate,
    null_safe_key,
)
from repro.query.expr import compare


class FakeTable:
    """Minimal storage shim speaking the kernel's leaf protocol."""

    def __init__(self, rows):
        self._rows = {row["id"]: row for row in rows}

    def get(self, key):
        return self._rows.get(key)

    def get_many(self, keys):
        return [self._rows.get(key) for key in keys]

    def scan(self):
        return iter(self._rows.values())


ROWS = [{"id": i, "val": i * 10} for i in range(5)]


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
                        lambda row, params: row["val"] >= params[0],
                        "val >= ?0",
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

    def test_describe_dispatches_plans_and_nodes(self):
        scan = FullScan(FakeTable(ROWS), "t")
        plan = Plan(scan)
        plan.run(())
        assert describe(plan) == plan.operator_stats()
        assert describe(scan)[0].node == "FullScan"
        cache = PlanCache()
        assert describe(cache) == cache.stats()

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
