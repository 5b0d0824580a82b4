"""Flight-recorder debug bundles: the one snapshot of a run, and its report.

A bundle freezes everything needed to diagnose a run offline: the run
header, the metrics snapshot, merged span tree (with its drop count),
slow-op log, the query log and its fingerprint profiles, per-operator
counters, per-table storage stats, plan-cache entries, cube epoch rows,
and every ``REPRO_*`` environment knob.  :func:`render_bundle` is the
one text report over it, so a live ``repro stats`` run and an offline
``repro stats --bundle FILE`` print the same lines.

The telemetry package is a leaf (REPRO012), so engine-side state (run
header, operator counters, storage stats, plan-cache entries, epoch
rows) arrives here already serialized by the CLI layer — this module
only assembles, validates, reloads and renders the artifact.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.telemetry.export import render_metrics_table, render_span_tree, snapshot
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.querylog import QueryLog
from repro.telemetry.trace import Tracer

#: Bump on any backwards-incompatible change to the bundle layout; a
#: bundle of another version is refused, never half-rendered.
BUNDLE_SCHEMA_VERSION = 2

# Required top-level keys and their types; ``validate_bundle`` is a
# stdlib-only structural check, not a full JSON-Schema validator.
_BUNDLE_SHAPE: Dict[str, type] = {
    "schema_version": int,
    "run": dict,
    "telemetry": dict,
    "operators": list,
    "storage": list,
    "query_log": dict,
    "plan_cache": list,
    "epochs": list,
    "env": dict,
}

_TELEMETRY_SHAPE: Dict[str, type] = {
    "metrics": list,
    "spans": list,
    "spans_dropped": int,
    "slow_ops": list,
    "slow_ops_dropped": int,
}

_RUN_SHAPE: Dict[str, type] = {
    "dataset": str,
    "tuples": int,
    "scale": float,
    "schema": str,
    "queries": int,
    "answers_agree": bool,
}

_QUERY_LOG_SHAPE: Dict[str, type] = {
    "records": list,
    "profiles": list,
    "dropped": int,
    "max_records": int,
}


def collect_env() -> Dict[str, str]:
    """Every ``REPRO_*`` environment variable currently set."""
    return {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith("REPRO_")
    }


def build_bundle(
    run: Dict[str, Any],
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    query_log: Optional[QueryLog] = None,
    operators: Sequence[Dict[str, Any]] = (),
    storage: Sequence[Dict[str, Any]] = (),
    plan_cache: Sequence[Dict[str, Any]] = (),
    epochs: Sequence[Dict[str, Any]] = (),
) -> Dict[str, Any]:
    """Assemble a schema-versioned bundle from live telemetry state.

    ``run`` is the run header :func:`render_bundle` prints first: the
    keys of :data:`_RUN_SHAPE`."""
    if query_log is None:
        log_section: Dict[str, Any] = {
            "records": [],
            "profiles": [],
            "dropped": 0,
            "max_records": 0,
        }
    else:
        log_section = {
            "records": query_log.as_dicts(),
            "profiles": query_log.profiles(),
            "dropped": query_log.dropped,
            "max_records": query_log.max_records,
        }
    return {
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "run": dict(run),
        "telemetry": snapshot(registry, tracer),
        "operators": list(operators),
        "storage": list(storage),
        "query_log": log_section,
        "plan_cache": list(plan_cache),
        "epochs": list(epochs),
        "env": collect_env(),
    }


def _check_shape(name: str, section: Any, shape: Dict[str, type]) -> List[str]:
    errors: List[str] = []
    for key, expected in shape.items():
        if key not in section:
            errors.append(f"{name}: missing key {key!r}")
        elif not isinstance(section[key], expected):
            errors.append(
                f"{name}.{key}: expected {expected.__name__}, "
                f"got {type(section[key]).__name__}"
            )
    return errors


def validate_bundle(bundle: Dict[str, Any]) -> None:
    """Raise ``ValueError`` listing every structural problem found."""
    if not isinstance(bundle, dict):
        raise ValueError(f"bundle must be a dict, got {type(bundle).__name__}")
    errors = _check_shape("bundle", bundle, _BUNDLE_SHAPE)
    version = bundle.get("schema_version")
    if isinstance(version, int) and version != BUNDLE_SCHEMA_VERSION:
        errors.append(
            f"bundle: schema_version {version} unsupported "
            f"(expected {BUNDLE_SCHEMA_VERSION})"
        )
    if isinstance(bundle.get("run"), dict):
        errors.extend(_check_shape("run", bundle["run"], _RUN_SHAPE))
    if isinstance(bundle.get("telemetry"), dict):
        errors.extend(_check_shape("telemetry", bundle["telemetry"], _TELEMETRY_SHAPE))
    if isinstance(bundle.get("query_log"), dict):
        errors.extend(_check_shape("query_log", bundle["query_log"], _QUERY_LOG_SHAPE))
    if errors:
        raise ValueError("invalid debug bundle: " + "; ".join(errors))


def bundle_to_json(bundle: Dict[str, Any], indent: int = 2) -> str:
    return json.dumps(bundle, indent=indent, sort_keys=False)


def from_bundle(source: Union[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Load and validate a bundle from JSON text or an already-parsed dict."""
    bundle = json.loads(source) if isinstance(source, str) else source
    validate_bundle(bundle)
    return bundle


def _run_header(run: Dict[str, Any]) -> str:
    return (
        f"dataset {run['dataset']}: {run['tuples']} tuples "
        f"(REPRO_SCALE={run['scale']:g}), schema {run['schema']}, "
        f"one reload, {run['queries']} stored queries x2, "
        f"{'answers agree' if run['answers_agree'] else 'ANSWERS DIVERGE'}"
    )


def _operator_line(op: Dict[str, Any]) -> str:
    where = f" on {op['table']}" if op["table"] else ""
    detail = f" [{op['detail']}]" if op["detail"] else ""
    pushed = ""
    if op["blocks_skipped"] or op["rows_pruned"]:
        pushed = f" blocks_skipped={op['blocks_skipped']} rows_pruned={op['rows_pruned']}"
    return (
        f"  {op['node']}{where}{detail}: calls={op['calls']} "
        f"rows_out={op['rows_out']} wall={op['seconds'] * 1000:.3f}ms{pushed}"
    )


def _storage_line(table: Dict[str, Any]) -> str:
    return (
        f"  {table['table']}: sstables={table['sstables']} "
        f"columnar_blocks={table['columnar_blocks']} "
        f"blocks_skipped={table['blocks_skipped']} "
        f"dict_hit_ratio={table['dict_hit_ratio']:.2f}"
    )


def _profile_line(p: Dict[str, Any]) -> str:
    return (
        f"  {p['dialect']:<6} n={p['count']:<4} "
        f"total={p['total_s'] * 1000:8.1f}ms "
        f"p50={p['p50_s'] * 1000:7.2f}ms p99={p['p99_s'] * 1000:7.2f}ms "
        f"rows={p['rows']:<6} {p['fingerprint'][:72]}"
    )


def render_bundle(bundle: Dict[str, Any]) -> str:
    """The ``repro stats`` text report: run header, merged span tree,
    per-operator counters, storage stats, metrics table, the ten query
    fingerprints with the most total time (with p50/p99), and slow ops."""
    snap = bundle["telemetry"]
    sections = [
        _run_header(bundle["run"]),
        "",
        f"spans ({snap['spans_dropped']} dropped)",
        render_span_tree(snap["spans"]),
        "",
        "operators",
    ]
    sections += [_operator_line(op) for op in bundle["operators"]] or ["  (none)"]
    if bundle["storage"]:
        sections += ["", "storage"] + [_storage_line(t) for t in bundle["storage"]]
    sections += ["", "metrics", render_metrics_table(snap), "", "query log"]
    profiles = bundle["query_log"]["profiles"][:10]
    sections += [_profile_line(p) for p in profiles] or ["  (none)"]
    sections += ["", f"slow ops ({snap['slow_ops_dropped']} dropped)"]
    sections += [
        f"  {op['name']}: {op['wall_ms']:.1f} ms {op.get('attrs', {})}"
        for op in snap["slow_ops"]
    ] or ["  (none)"]
    return "\n".join(sections)
