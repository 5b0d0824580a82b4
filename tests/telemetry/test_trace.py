"""The tracer: nesting, merging, slow-op view, thread behaviour, caps."""

import threading

import pytest

import repro.telemetry.trace as trace
from repro.telemetry import snapshot
from repro.telemetry.trace import _NOOP_SPAN, MAX_SLOW_OPS, MAX_SPANS, Tracer


class TestGating:
    def test_disabled_returns_noop_singleton(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything")
        assert span is _NOOP_SPAN
        with span as s:
            s.set("key", "value")  # must be a silent no-op
        assert tracer.span_count() == 0
        assert tracer.roots == []

    def test_span_cap(self, tracer):
        tracer._n_spans = MAX_SPANS
        assert tracer.span("over") is _NOOP_SPAN

    def test_spans_past_the_cap_are_counted_and_reach_the_snapshot(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_SPANS", 3)
        tracer = Tracer(enabled=True)
        with tracer.span("root"):
            for _ in range(4):
                with tracer.span("child"):
                    pass
        assert tracer.span_count() == 3
        assert tracer.spans_dropped == 2
        assert snapshot(tracer=tracer)["spans_dropped"] == 2
        tracer.reset()
        assert tracer.spans_dropped == 0


class TestNesting:
    def test_children_nest_under_open_parent(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner", "inner"]
        assert outer.wall_s >= sum(c.wall_s for c in outer.children)

    def test_name_is_positional_only(self, tracer):
        # attribute keys may shadow the positional parameter name
        with tracer.span("op", name="attr-value", schema="s") as span:
            pass
        assert span.attrs == {"name": "attr-value", "schema": "s"}

    def test_set_attribute(self, tracer):
        with tracer.span("op") as span:
            span.set("rows", 7)
        assert tracer.roots[0].attrs["rows"] == 7

    def test_exception_still_finishes_span(self, tracer):
        try:
            with tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert tracer.roots[0].wall_s >= 0.0
        # the stack is clean: the next span is a root, not a child
        with tracer.span("after"):
            pass
        assert [s.name for s in tracer.roots] == ["boom", "after"]


class TestMerged:
    def test_folds_by_name_path(self, tracer):
        for _ in range(3):
            with tracer.span("parent"):
                with tracer.span("child"):
                    pass
        merged = tracer.merged()
        assert len(merged) == 1
        assert merged[0]["count"] == 3
        assert merged[0]["children"][0]["name"] == "child"
        assert merged[0]["children"][0]["count"] == 3

    def test_preserves_first_seen_order(self, tracer):
        with tracer.span("b"):
            pass
        with tracer.span("a"):
            pass
        assert [n["name"] for n in tracer.merged()] == ["b", "a"]

    def test_thread_spans_become_roots_and_fold(self, tracer):
        def work():
            with tracer.span("worker"):
                pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        with tracer.span("main"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        merged = {n["name"]: n for n in tracer.merged()}
        assert merged["main"]["count"] == 1
        assert merged["worker"]["count"] == 4  # separate roots, folded


@pytest.fixture
def every_span_slow(monkeypatch):
    """Make every finished span a slow op."""
    monkeypatch.setattr(trace, "SLOW_OP_MS", 0.0)


class TestSlowOps:
    def test_threshold_zero_records_everything(self, tracer, every_span_slow):
        with tracer.span("slow", detail="x"):
            with tracer.span("inner"):
                pass
        ops, dropped = tracer.slow_ops_view()
        assert [op["name"] for op in ops] == ["inner", "slow"]  # finish order
        assert ops[1]["attrs"] == {"detail": "x"}
        assert ops[1]["wall_ms"] >= ops[0]["wall_ms"] >= 0.0
        assert dropped == 0

    def test_fast_ops_not_recorded(self, tracer):
        with tracer.span("fast"):
            pass
        assert tracer.slow_ops_view() == ([], 0)


class TestReset:
    def test_reset_clears_everything(self, tracer, every_span_slow):
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.roots == []
        assert tracer.slow_ops_view() == ([], 0)
        assert tracer.span_count() == 0


class TestSlowOpRetention:
    def test_overflow_counted_not_silent(self, tracer, every_span_slow):
        for i in range(MAX_SLOW_OPS + 3):
            with tracer.span("op", i=i):
                pass
        ops, dropped = tracer.slow_ops_view()
        assert len(ops) == MAX_SLOW_OPS
        assert dropped == 3
        assert ops[0]["attrs"] == {"i": 3}  # the earliest finished are left out

    def test_reset_clears_drop_count(self, tracer, every_span_slow):
        for _ in range(MAX_SLOW_OPS + 1):
            with tracer.span("op"):
                pass
        tracer.reset()
        assert tracer.slow_ops_view()[1] == 0
