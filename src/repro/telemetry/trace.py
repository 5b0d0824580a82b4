"""Hierarchical tracing: nested spans with wall/CPU time.

A span measures one named phase (``dwarf.build``, ``nosqldb.flush``, ...)
and nests under whatever span is open on the *same thread* — each thread
keeps its own stack, so worker-pool spans become independent roots that
:meth:`Tracer.merged` folds together by name path afterwards.  The
slow-op log is a view over the same forest (:meth:`Tracer.slow_ops_view`).

When tracing is disabled (the default), :meth:`Tracer.span` returns a
shared no-op context manager after a single attribute check.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

_DISABLED = ("", "0", "false", "no", "off")

#: Hard cap on recorded spans per tracer; past it new spans become no-ops
#: (a runaway per-row span cannot exhaust memory), counted in
#: :attr:`Tracer.spans_dropped`.
MAX_SPANS = 100_000

#: A finished span at least this slow (wall milliseconds) is a slow op.
SLOW_OP_MS = 100.0

#: Cap on listed slow ops (the earliest finished are left out, and counted).
MAX_SLOW_OPS = 200


def _env_enabled(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in _DISABLED


class Span:
    """One timed phase.  Use as a context manager via :meth:`Tracer.span`."""

    __slots__ = (
        "name",
        "attrs",
        "wall_s",
        "cpu_s",
        "children",
        "_tracer",
        "_t0_wall",
        "_t0_cpu",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.children: List["Span"] = []
        self._t0_wall = 0.0
        self._t0_cpu = 0.0

    def set(self, key: str, value: Any) -> None:
        """Attach an attribute to an open span (no-op on the disabled path)."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._t0_wall = time.perf_counter()
        self._t0_cpu = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = time.perf_counter() - self._t0_wall
        self.cpu_s = time.process_time() - self._t0_cpu
        self._tracer._finish(self)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.as_dict() for child in self.children]
        return out


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    name = ""
    attrs: Dict[str, Any] = {}
    wall_s = 0.0
    cpu_s = 0.0

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Per-process span collector with thread-local nesting."""

    def __init__(self, enabled: Optional[bool] = None) -> None:
        self.enabled = _env_enabled("REPRO_TRACE") if enabled is None else enabled
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: List[Span] = []
        self._n_spans = 0
        #: Spans refused past :data:`MAX_SPANS`.
        self.spans_dropped = 0

    # -- recording ------------------------------------------------------
    def span(self, __name: str, **attrs: Any):
        """Open a nested span; returns the no-op singleton when disabled.

        The span name is positional-only so attribute keys like ``name``
        or ``schema`` never collide with it.
        """
        name = __name
        if not self.enabled:
            return _NOOP_SPAN
        with self._lock:
            if self._n_spans >= MAX_SPANS:
                self.spans_dropped += 1
                return _NOOP_SPAN
            self._n_spans += 1
        span = Span(self, name, attrs)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        # Pop down to (and including) the finished span; tolerate spans
        # closed out of order rather than corrupting the stack.
        while stack:
            if stack.pop() is span:
                break

    # -- inspection -----------------------------------------------------
    def span_count(self) -> int:
        return self._n_spans

    def merged(self) -> List[Dict[str, Any]]:
        """Aggregate the span forest by name path.

        Spans with the same name under the same parent path are folded
        into one node carrying ``count`` and summed wall/CPU time; this
        is what collapses per-partition worker spans and per-query spans
        into a readable tree.
        """
        with self._lock:
            roots = list(self.roots)
        merged: Dict[str, Dict[str, Any]] = {}
        order: List[str] = []

        def fold(spans: List[Span], table: Dict[str, Dict[str, Any]], order: List[str]):
            for span in spans:
                node = table.get(span.name)
                if node is None:
                    node = table[span.name] = {
                        "name": span.name,
                        "count": 0,
                        "wall_s": 0.0,
                        "cpu_s": 0.0,
                        "_children": {},
                        "_order": [],
                    }
                    order.append(span.name)
                node["count"] += 1
                node["wall_s"] += span.wall_s
                node["cpu_s"] += span.cpu_s
                fold(span.children, node["_children"], node["_order"])

        fold(roots, merged, order)

        def strip(table: Dict[str, Dict[str, Any]], order: List[str]):
            out = []
            for name in order:
                node = table[name]
                children = strip(node["_children"], node["_order"])
                clean = {
                    "name": node["name"],
                    "count": node["count"],
                    "wall_s": node["wall_s"],
                    "cpu_s": node["cpu_s"],
                }
                if children:
                    clean["children"] = children
                out.append(clean)
            return out

        return strip(merged, order)

    def slow_ops_view(self) -> Tuple[List[Dict[str, Any]], int]:
        """The slow-op log: every finished span of at least
        :data:`SLOW_OP_MS` wall time, children before their parent, the
        last :data:`MAX_SLOW_OPS` kept; and how many were left out."""
        with self._lock:
            roots = list(self.roots)
        ops: List[Dict[str, Any]] = []

        def visit(spans: List[Span]) -> None:
            for span in spans:
                visit(span.children)
                if span.wall_s * 1000.0 >= SLOW_OP_MS:
                    ops.append(
                        {
                            "name": span.name,
                            "wall_ms": span.wall_s * 1000.0,
                            "cpu_ms": span.cpu_s * 1000.0,
                            "attrs": dict(span.attrs),
                        }
                    )

        visit(roots)
        dropped = max(0, len(ops) - MAX_SLOW_OPS)
        return ops[dropped:], dropped

    def reset(self) -> None:
        with self._lock:
            self.roots.clear()
            self._n_spans = 0
            self.spans_dropped = 0
        self._local = threading.local()


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer singleton (mutated in place, never swapped)."""
    return _TRACER


def enable_tracing(on: bool = True) -> None:
    _TRACER.enabled = bool(on)
