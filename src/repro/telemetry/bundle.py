"""Flight-recorder debug bundles: one JSON artifact capturing a run.

A bundle freezes everything needed to diagnose a run offline: the
metrics snapshot, merged span tree, slow-op log (with drop count), the
query log and its fingerprint profiles, plan-cache entries, cube epoch
rows, and every ``REPRO_*`` environment knob.

The telemetry package is a leaf (REPRO012), so engine-side state
(plan-cache entries, epoch rows) arrives here already
serialized by the CLI layer — this module only assembles, validates and
reloads the artifact.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.telemetry.export import snapshot
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.querylog import QueryLog
from repro.telemetry.trace import Tracer

#: Bump on any backwards-incompatible change to the bundle layout.
BUNDLE_SCHEMA_VERSION = 1

# Required top-level keys and their types; ``validate_bundle`` is a
# stdlib-only structural check, not a full JSON-Schema validator.  Keys
# beyond these are allowed, so version-1 bundles written before a
# section was retired still load.
_BUNDLE_SHAPE: Dict[str, type] = {
    "schema_version": int,
    "telemetry": dict,
    "query_log": dict,
    "plan_cache": list,
    "epochs": list,
    "env": dict,
}

_TELEMETRY_SHAPE: Dict[str, type] = {
    "metrics": list,
    "spans": list,
    "slow_ops": list,
    "slow_ops_dropped": int,
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
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    query_log: Optional[QueryLog] = None,
    plan_cache: Sequence[Dict[str, Any]] = (),
    epochs: Sequence[Dict[str, Any]] = (),
) -> Dict[str, Any]:
    """Assemble a schema-versioned bundle from live telemetry state."""
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
        "telemetry": snapshot(registry, tracer),
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
