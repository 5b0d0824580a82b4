"""Bounded per-statement query history with fingerprint aggregation.

Every executed statement (both dialects, stored queries, bulk helpers,
the ingest loop) appends one compact :class:`QueryRecord` to the
process-wide :class:`QueryLog` ring buffer.  Statements are keyed by a
*fingerprint* — the statement text with literals masked and
whitespace/case folded — so ``...WHERE id = 3`` and ``...WHERE id = 7``
aggregate into one profile.

Gating mirrors the metrics registry: when ``REPRO_QUERY_LOG`` is unset
or falsy the hot path pays exactly one attribute check
(``if _QUERY_LOG.enabled:``) and nothing is allocated — callers must
not even compute the fingerprint before checking the gate.
"""

from __future__ import annotations

import os
import re
import threading
from collections import deque
from typing import Any, Dict, List, NamedTuple, Optional

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    HistogramChild,
    MetricsRegistry,
)

_DISABLED = ("", "0", "false", "no", "off")

#: Ring-buffer capacity (records, not fingerprints).
DEFAULT_MAX_RECORDS = 4096

# Literal masking: single-quoted strings first (so digits inside them
# vanish with the string), then bare numbers.  ``(?<![\w?])`` keeps
# identifiers like ``t1`` and already-masked ``?`` placeholders intact.
_STRING_RE = re.compile(r"'(?:[^']|'')*'")
_NUMBER_RE = re.compile(r"(?<![\w?])\d+(?:\.\d+)?")
_WS_RE = re.compile(r"\s+")


def _env_enabled(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in _DISABLED


def fingerprint(statement: str) -> str:
    """Normalize a statement for aggregation.

    String and numeric literals become ``?`` (matching the prepared-
    statement placeholder, so prepared and inline forms of the same
    query share a fingerprint), runs of whitespace collapse to one
    space, and the text is upper-cased.
    """
    masked = _STRING_RE.sub("?", statement)
    masked = _NUMBER_RE.sub("?", masked)
    return _WS_RE.sub(" ", masked).strip().upper()


def latency_bucket(seconds: float) -> float:
    """The DEFAULT_BUCKETS upper bound this latency falls into.

    Values past the last finite bound clamp to it, mirroring
    :func:`repro.telemetry.metrics.bucket_quantile`.
    """
    for bound in DEFAULT_BUCKETS:
        if seconds <= bound:
            return bound
    return DEFAULT_BUCKETS[-1]


class QueryRecord(NamedTuple):
    """One executed statement, compacted for the ring buffer."""

    fingerprint: str
    dialect: str  # "sql" | "cql" | "stored"
    seconds: float
    bucket: float  # latency_bucket(seconds)
    rows: int
    cache_hits: int
    blocks_skipped: int
    rows_pruned: int
    epoch: int

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._asdict())


class QueryLog:
    """Bounded, thread-safe ring buffer of :class:`QueryRecord`."""

    def __init__(
        self,
        enabled: Optional[bool] = None,
        max_records: Optional[int] = None,
    ) -> None:
        self.enabled = _env_enabled("REPRO_QUERY_LOG") if enabled is None else enabled
        self.max_records = DEFAULT_MAX_RECORDS if max_records is None else max_records
        self._lock = threading.Lock()
        self._records: deque = deque(maxlen=self.max_records)
        self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # -- recording ------------------------------------------------------
    def record(
        self,
        statement: str,
        dialect: str,
        seconds: float,
        rows: int = 0,
        cache_hits: int = 0,
        blocks_skipped: int = 0,
        rows_pruned: int = 0,
        epoch: int = 0,
    ) -> None:
        """Append one record.  Callers gate on ``self.enabled`` *before*
        computing any argument; this method assumes the gate passed."""
        rec = QueryRecord(
            fingerprint=fingerprint(statement),
            dialect=dialect,
            seconds=seconds,
            bucket=latency_bucket(seconds),
            rows=rows,
            cache_hits=cache_hits,
            blocks_skipped=blocks_skipped,
            rows_pruned=rows_pruned,
            epoch=epoch,
        )
        with self._lock:
            if len(self._records) == self._records.maxlen:
                self.dropped += 1
            self._records.append(rec)

    # -- inspection -----------------------------------------------------
    def records(self) -> List[QueryRecord]:
        with self._lock:
            return list(self._records)

    def profiles(self) -> List[Dict[str, Any]]:
        """Per-fingerprint aggregates with count/total/p50/p99.

        Quantiles come from a :class:`HistogramChild` per fingerprint
        (same fixed buckets as every latency metric), so the p50/p99
        ``repro stats`` prints follow the semantics of ``Histogram.quantile``.
        """
        registry = MetricsRegistry(enabled=True)
        hists: Dict[str, HistogramChild] = {}
        rollup: Dict[str, Dict[str, Any]] = {}
        for rec in self.records():
            agg = rollup.get(rec.fingerprint)
            if agg is None:
                agg = rollup[rec.fingerprint] = {
                    "fingerprint": rec.fingerprint,
                    "dialect": rec.dialect,
                    "count": 0,
                    "total_s": 0.0,
                    "rows": 0,
                    "cache_hits": 0,
                    "blocks_skipped": 0,
                    "rows_pruned": 0,
                    "epoch": rec.epoch,
                }
                hists[rec.fingerprint] = HistogramChild(
                    registry, (), DEFAULT_BUCKETS
                )
            agg["count"] += 1
            agg["total_s"] += rec.seconds
            agg["rows"] += rec.rows
            agg["cache_hits"] += rec.cache_hits
            agg["blocks_skipped"] += rec.blocks_skipped
            agg["rows_pruned"] += rec.rows_pruned
            agg["epoch"] = max(agg["epoch"], rec.epoch)
            hists[rec.fingerprint].observe(rec.seconds)
        out: List[Dict[str, Any]] = []
        for fp, agg in rollup.items():
            hist = hists[fp]
            agg["p50_s"] = hist.quantile(0.5)
            agg["p99_s"] = hist.quantile(0.99)
            out.append(agg)
        out.sort(key=lambda a: a["total_s"], reverse=True)
        return out

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [rec.as_dict() for rec in self.records()]

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
            self.dropped = 0


_QUERY_LOG = QueryLog()


def get_query_log() -> QueryLog:
    """The process-wide query log singleton (mutated in place, never swapped)."""
    return _QUERY_LOG


def enable_query_log(on: bool = True) -> None:
    _QUERY_LOG.enabled = bool(on)
