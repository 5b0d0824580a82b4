"""Exporters: snapshot shape, the JSON trip, Prometheus text, renderers."""

import json

import repro.telemetry.trace as trace
from repro.telemetry import (
    bundle_to_json,
    render_metrics_table,
    render_span_tree,
    snapshot,
    to_prometheus,
)


def populated(registry, tracer):
    """A registry + tracer with one of everything recorded."""
    registry.counter("reads_total", "reads", labels=("table",)).labels("t1").inc(3)
    registry.counter("plain_total", "no labels").inc()
    registry.gauge("depth", "stack depth").set(2)
    h = registry.histogram("latency_seconds", "op latency", buckets=(0.01, 1.0))
    h.observe(0.005)
    h.observe(0.5)
    h.observe(50.0)
    with tracer.span("outer", schema="bikes"):
        with tracer.span("inner"):
            pass
    return snapshot(registry, tracer)


class TestSnapshot:
    def test_shape(self, registry, tracer):
        snap = populated(registry, tracer)
        assert set(snap) == {
            "metrics", "spans", "spans_dropped", "slow_ops", "slow_ops_dropped",
        }
        names = [m["name"] for m in snap["metrics"]]
        assert names == sorted(names)
        assert snap["spans"][0]["name"] == "outer"

    def test_zero_value_samples_skipped(self, registry, tracer):
        registry.counter("untouched_total", "never incremented")
        snap = snapshot(registry, tracer)
        assert snap["metrics"] == []

    def test_disabled_snapshot_is_empty(self, registry, tracer):
        snap = snapshot(registry=None, tracer=None)
        assert snap == {
            "metrics": [],
            "spans": [],
            "spans_dropped": 0,
            "slow_ops": [],
            "slow_ops_dropped": 0,
        }


class TestJsonRoundTrip:
    def test_round_trip(self, registry, tracer):
        snap = populated(registry, tracer)
        assert json.loads(bundle_to_json(snap)) == snap


class TestPrometheusRoundTrip:

    def test_exposition_format(self, registry, tracer):
        text = to_prometheus(populated(registry, tracer))
        assert "# TYPE reads_total counter" in text
        assert 'reads_total{table="t1"} 3' in text
        assert "# TYPE latency_seconds histogram" in text
        # cumulative buckets: 0.01 -> 1, 1.0 -> 2, +Inf -> 3
        assert 'latency_seconds_bucket{le="+Inf"} 3' in text
        assert "latency_seconds_count 3" in text

    def test_label_escaping(self, registry, tracer):
        registry.counter("odd_total", labels=("k",)).labels('a"b\\c\n').inc()
        text = to_prometheus(snapshot(registry, tracer))
        assert 'odd_total{k="a\\"b\\\\c\\n"} 1' in text


class TestRenderers:
    def test_metrics_table_lists_every_family(self, registry, tracer):
        snap = populated(registry, tracer)
        table = render_metrics_table(snap)
        for name in ("reads_total", "plain_total", "depth", "latency_seconds"):
            assert name in table

    def test_span_tree_indents_children(self, registry, tracer):
        snap = populated(registry, tracer)
        lines = render_span_tree(snap["spans"]).splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")
        assert "count=1" in lines[0]


class TestSlowOpDropCount:
    def test_snapshot_carries_the_drop_count(self, registry, tracer, monkeypatch):
        monkeypatch.setattr(trace, "SLOW_OP_MS", 0.0)
        for _ in range(trace.MAX_SLOW_OPS + 7):
            with tracer.span("op"):
                pass
        snap = snapshot(registry, tracer)
        assert snap["slow_ops_dropped"] == 7
        assert len(snap["slow_ops"]) == trace.MAX_SLOW_OPS
