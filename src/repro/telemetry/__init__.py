"""Process-wide telemetry: metrics registry, hierarchical tracer, query log.

This package is a stdlib-only leaf: it imports nothing from the rest of
``repro``, so every layer (storage, engines, kernel, mappers, ETL) may
report into it without violating the layering rules (REPRO006/REPRO012).

Gating
------
Three env vars control runtime cost (see :mod:`repro.telemetry.metrics`,
:mod:`repro.telemetry.trace` and :mod:`repro.telemetry.querylog`):

``REPRO_METRICS``
    Enables counter/gauge/histogram recording.  Disabled (the default),
    every ``inc``/``set``/``observe`` is a single attribute check.
``REPRO_TRACE``
    Enables span recording.  Disabled, ``tracer.span(...)`` returns a
    shared no-op context manager.  The slow-op log is a view over the
    recorded spans, taken when a snapshot is.
``REPRO_QUERY_LOG``
    Enables the per-statement query history (the newest 4096 records).
    Disabled (the default), instrumented call sites pay one attribute
    check per statement and allocate nothing.

The gates can be flipped at runtime with :func:`enable_metrics` /
:func:`enable_tracing` / :func:`enable_query_log` (used by
``repro stats`` and the tests); the
singletons returned by :func:`get_registry` / :func:`get_tracer` are
mutated in place, never replaced, so references cached at import time in
hot paths stay valid.
"""

from __future__ import annotations

import time

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
    enable_metrics,
    get_registry,
)
from repro.telemetry.trace import (
    Span,
    Tracer,
    enable_tracing,
    get_tracer,
)
from repro.telemetry.export import (
    render_metrics_table,
    render_span_tree,
    snapshot,
    to_prometheus,
)
from repro.telemetry.querylog import (
    QueryLog,
    QueryRecord,
    enable_query_log,
    fingerprint,
    get_query_log,
)
from repro.telemetry.bundle import (
    BUNDLE_SCHEMA_VERSION,
    build_bundle,
    bundle_to_json,
    collect_env,
    from_bundle,
    render_bundle,
    validate_bundle,
)
from repro.telemetry.catalog import METRIC_NAMES, SPAN_NAMES

#: The one sanctioned monotonic clock.  Instrumented code outside this
#: package must use ``wall_clock()`` instead of ``time.perf_counter()``
#: directly (source contract REPRO007 enforces this).
wall_clock = time.perf_counter

#: CPU-time companion to ``wall_clock``; EXPLAIN ANALYZE uses both to
#: report per-operator wall vs. CPU seconds.
cpu_clock = time.process_time

__all__ = [
    "BUNDLE_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "METRIC_NAMES",
    "MetricsRegistry",
    "QueryLog",
    "QueryRecord",
    "SPAN_NAMES",
    "Span",
    "Tracer",
    "bucket_quantile",
    "build_bundle",
    "bundle_to_json",
    "collect_env",
    "cpu_clock",
    "enable_metrics",
    "enable_query_log",
    "enable_tracing",
    "fingerprint",
    "from_bundle",
    "get_query_log",
    "get_registry",
    "get_tracer",
    "render_bundle",
    "render_metrics_table",
    "render_span_tree",
    "snapshot",
    "to_prometheus",
    "validate_bundle",
    "wall_clock",
]
