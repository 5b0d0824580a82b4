"""Snapshot assembly and exporters (Prometheus text, terminal render).

A *snapshot* is a plain dict: ``{"metrics": [...], "spans": [...],
"spans_dropped": n, "slow_ops": [...], "slow_ops_dropped": n}`` — the
``telemetry`` section of a debug bundle (:mod:`repro.telemetry.bundle`),
which is what gets written as JSON.  ``to_prometheus`` renders the
metrics section in the Prometheus text format (spans have no Prometheus
representation).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.telemetry.metrics import HistogramChild, MetricsRegistry
from repro.telemetry.trace import Tracer


# ---------------------------------------------------------------------------
# snapshot
# ---------------------------------------------------------------------------
def snapshot(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """Freeze the current telemetry state into a JSON-safe dict.

    Families with no recorded samples are skipped so a snapshot taken
    with telemetry disabled is compact (metric *registration* happens at
    import time regardless of gating).
    """
    out: Dict[str, Any] = {
        "metrics": [],
        "spans": [],
        "spans_dropped": 0,
        "slow_ops": [],
        "slow_ops_dropped": 0,
    }
    if registry is not None:
        for family in registry.families():
            samples: List[Dict[str, Any]] = []
            for child in family.children():
                labels = dict(zip(family.label_names, child.labels))
                if isinstance(child, HistogramChild):
                    if child.count == 0:
                        continue
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": {
                                str(b): c
                                for b, c in zip(child.buckets, child.counts)
                            },
                            "inf": child.counts[-1],
                            "sum": child.sum,
                            "count": child.count,
                        }
                    )
                else:
                    if child.value == 0.0:
                        continue
                    samples.append({"labels": labels, "value": child.value})
            if samples:
                out["metrics"].append(
                    {
                        "name": family.name,
                        "type": family.kind,
                        "help": family.help,
                        "labels": list(family.label_names),
                        "samples": samples,
                    }
                )
    if tracer is not None:
        out["spans"] = tracer.merged()
        out["spans_dropped"] = tracer.spans_dropped
        out["slow_ops"], out["slow_ops_dropped"] = tracer.slow_ops_view()
    return out


# ---------------------------------------------------------------------------
# Prometheus text exposition format
# ---------------------------------------------------------------------------
def _fmt_labels(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        '%s="%s"' % (
            k,
            str(v).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n"),
        )
        for k, v in merged.items()
    )
    return "{" + body + "}"


def _fmt_value(value: float) -> str:
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def to_prometheus(snap: Dict[str, Any]) -> str:
    """Render the metrics section in the Prometheus text format."""
    lines: List[str] = []
    for family in snap.get("metrics", []):
        name = family["name"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family["samples"]:
            labels = sample.get("labels", {})
            if family["type"] == "histogram":
                cumulative = 0
                for bound, count in sample["buckets"].items():
                    cumulative += count
                    lines.append(
                        f"{name}_bucket{_fmt_labels(labels, {'le': bound})} {cumulative}"
                    )
                cumulative += sample.get("inf", 0)
                lines.append(
                    f"{name}_bucket{_fmt_labels(labels, {'le': '+Inf'})} {cumulative}"
                )
                lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(sample['sum'])}")
                lines.append(f"{name}_count{_fmt_labels(labels)} {sample['count']}")
            else:
                lines.append(
                    f"{name}{_fmt_labels(labels)} {_fmt_value(sample['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# terminal rendering
# ---------------------------------------------------------------------------
def render_metrics_table(snap: Dict[str, Any]) -> str:
    """Fixed-width table of every non-zero metric sample."""
    rows: List[tuple] = []
    for family in snap.get("metrics", []):
        for sample in family["samples"]:
            label_text = ",".join(f"{k}={v}" for k, v in sample.get("labels", {}).items())
            if family["type"] == "histogram":
                mean = sample["sum"] / sample["count"] if sample["count"] else 0.0
                value = f"count={sample['count']} mean={mean * 1000:.3f}ms"
            else:
                value = _fmt_value(sample["value"])
            rows.append((family["name"], label_text, value))
    if not rows:
        return "(no metrics recorded)"
    name_w = max(len(r[0]) for r in rows)
    label_w = max(len(r[1]) for r in rows)
    lines = [
        f"{name:<{name_w}}  {labels:<{label_w}}  {value}"
        for name, labels, value in rows
    ]
    return "\n".join(lines)


def render_span_tree(spans: List[Dict[str, Any]], indent: int = 0) -> str:
    """ASCII tree of a merged span forest (see :meth:`Tracer.merged`)."""
    if not spans and indent == 0:
        return "(no spans recorded)"
    lines: List[str] = []
    for node in spans:
        lines.append(
            "%s%s  count=%d wall=%.3fms cpu=%.3fms"
            % (
                "  " * indent,
                node["name"],
                node["count"],
                node["wall_s"] * 1000.0,
                node["cpu_s"] * 1000.0,
            )
        )
        children = node.get("children") or []
        if children:
            lines.append(render_span_tree(children, indent + 1))
    return "\n".join(lines)
