"""The benchmark's clock, span recorder and percentile arithmetic.

The only benchmark file that touches a clock: both clocks are the
sanctioned ``repro.telemetry`` aliases (lint rule REPRO007), read here
and nowhere else under ``benchmarks/e2e/``.  The program's own telemetry
stays off; spans are recorded by the harness around its calls into a
layer, kept in memory and written out by ``run.py`` when the run ends.
"""

from __future__ import annotations

import gc
import math
import statistics
import zlib
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.telemetry import cpu_clock, wall_clock

now = wall_clock


class Span:
    """One timed call into a layer: name, interval and causing span."""

    __slots__ = ("index", "name", "parent", "start", "end", "cpu_s", "child_s")

    def __init__(self, index: int, name: str, parent: Optional[int]) -> None:
        self.index = index
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.cpu_s = 0.0
        self.child_s = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part of it covered by child spans."""
        return self.wall_s - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """Times regions; with ``trace`` on it also keeps them as spans.

    Untraced, ``timed`` yields only a wall interval (the end-to-end
    metrics need that much).  Traced, every region also reads the CPU
    clock, knows its parent and is kept for ``trace.json`` — the
    difference between the two is the tracing overhead the benchmark
    reports.  (``timed``, not ``span``: lint rule REPRO014 reads every
    ``.span("...")`` call as one of the program's catalogued spans.)
    """

    def __init__(self, run_id: str, trace: bool) -> None:
        self.run_id = run_id
        self.trace = trace
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextmanager
    def timed(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent.index if parent else None)
        trace = self.trace
        if trace:
            self.spans.append(span)
            self._stack.append(span)
            cpu0 = cpu_clock()
        span.start = wall_clock()
        try:
            yield span
        finally:
            span.end = wall_clock()
            if trace:
                span.cpu_s = cpu_clock() - cpu0
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.wall_s

    def calibrate(self, seconds: float) -> List[float]:
        """Run the calibration kernel for about ``seconds``; returns the
        time each call took."""
        taken: List[float] = []
        with self.timed("harness.calibrate"):
            while sum(taken) < seconds:
                t0 = wall_clock()
                calibration_kernel()
                taken.append(wall_clock() - t0)
        return taken

    def collect(self) -> None:
        """Empty the heap between repetitions.

        The collector stays off while anything is timed, so its pauses
        are harness work with a span of their own rather than noise
        inside somebody's measurement.
        """
        with self.timed("harness.gc"):
            gc.collect()

    # ------------------------------------------------------------------
    def by_name(self, attribute: str) -> Dict[str, List[float]]:
        """Span name -> ``attribute`` (``self_s``, ``wall_s`` or ``cpu_s``,
        the last with children included) of each of its occurrences."""
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(getattr(span, attribute))
        return out

    def layer_totals(self, root: Span) -> Tuple[Dict[str, float], float]:
        """Self time per layer under ``root`` plus the unattributed rest.

        ``sum(layers.values()) + unattributed == root.wall_s``: every
        span's self time is counted once, and what the root did not hand
        to a child span is nobody's.
        """
        layers: Dict[str, float] = {}
        for span in self.spans:
            if span is not root:
                layers[span.layer] = layers.get(span.layer, 0.0) + span.self_s
        return layers, root.self_s

    def as_json(self) -> List[dict]:
        return [
            {
                "id": span.index,
                "run": self.run_id,
                "name": span.name,
                "parent": span.parent,
                "start_s": span.start,
                "end_s": span.end,
                "self_s": span.self_s,
                "cpu_s": span.cpu_s,
            }
            for span in self.spans
        ]


def calibration_kernel() -> int:
    """A fixed piece of interpreter work (dicts, tuples, strings, a sort,
    a compress) that takes about ten milliseconds: how long it takes in a
    run says how fast the machine was during that run."""
    counts: Dict[Tuple[int, str], int] = {}
    for i in range(12000):
        key = (i % 977, str(i % 131))
        counts[key] = counts.get(key, 0) + i
    ordered = sorted(counts.items(), key=lambda item: (item[1], item[0]))
    text = ",".join(f"{key[1]}:{value}" for key, value in ordered[:2000])
    return len(zlib.compress(text.encode("ascii"), 1)) + len(ordered)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def tail_percentile(values: Sequence[float]) -> Tuple[str, float]:
    """The highest of p99/p95/p90 with at least ten samples beyond it.

    Returns ``(label, value)``; with fewer than 100 samples no tail
    percentile qualifies and the label is ``"max"``.
    """
    for label, fraction in (("p99", 0.99), ("p95", 0.95), ("p90", 0.90)):
        if len(values) * (1.0 - fraction) >= 10.0 - 1e-9:
            return label, percentile(values, fraction)
    return "max", max(values)
