"""Parallel partitioned DWARF construction.

The sorted-scan construction of :class:`~repro.dwarf.builder.DwarfBuilder`
is partition-sequential: tuples sharing a first-dimension member form a
contiguous run of the sorted input, and the sub-dwarf under that member is
finished (closed) before the scan ever touches the next member.  The only
cross-run work is the final root close, which merges every first-dimension
sub-dwarf into the root's ALL cell — consulting the merge memo accumulated
over all the runs, so it can reuse intra-run merges wholesale.

That makes first-dimension prefixes a clean parallel partitioning, the
strategy of "Scalable Data Cube Analysis over Big Data": split the sorted
tuple set into contiguous chunks on first-dimension boundaries, build each
chunk's sub-dwarf in a worker (``close_root=False`` so the partition root
stays open), concatenate the partition roots' cells under one shared root
— still in ascending key order — and close that root with the ordinary
SuffixCoalesce machinery, seeded with the union of the workers' merge
memos.  The result is *structurally identical* to the serial build: same
DAG topology, same node/cell counts, same merge count, and therefore
byte-identical once transformed for storage.

Workers default to ``os.cpu_count()``, overridable with the
``REPRO_WORKERS`` environment variable (``REPRO_WORKERS=1`` forces the
serial path, mirroring how ``REPRO_SCALE`` controls dataset size).  Small
inputs fall back to threads (no pickling) or plain serial construction,
because process start-up plus graph pickling costs more than it saves
below a few thousand tuples.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.flags import checks_enabled
from repro.core.errors import TupleShapeError
from repro.core.schema import CubeSchema
from repro.core.tuples import FactTuple, TupleSet
from repro.dwarf.builder import DwarfBuilder
from repro.dwarf.cube import DwarfCube
from repro.dwarf.node import DwarfNode
from repro.telemetry import get_registry, get_tracer

_M_PARALLEL_BUILDS = get_registry().counter(
    "dwarf_parallel_builds_total",
    "ParallelDwarfBuilder builds by effective mode",
    labels=("mode",),
)

#: Below this many tuples the serial builder wins outright.
MIN_PARALLEL_TUPLES = 2048
#: Below this many tuples per build, process start-up + pickling the
#: sub-dwarf graphs back costs more than true parallelism recovers, so
#: the thread pool (shared address space, no pickling) is used instead.
MIN_PROCESS_TUPLES = 65536


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_WORKERS`` > CPU count.

    Malformed values fall back to the CPU count and non-positive ones to
    a single worker, as every other integer ``REPRO_*`` knob falls back
    to its default.
    """
    if workers is None:
        try:
            workers = int(os.environ["REPRO_WORKERS"])
        except (KeyError, ValueError):
            workers = os.cpu_count() or 1
    return max(1, int(workers))


def _build_partition(schema: CubeSchema, facts: List[FactTuple], coalesce: bool):
    """Worker: build one partition's sub-dwarf, leaving its root open.

    Module-level so it pickles for ``ProcessPoolExecutor``; the facts are
    a contiguous, already-sorted slice so the worker skips re-validation.
    Returns the open root together with the builder's merge memo: the
    final root close re-merges single-source shares from one partition
    and must hit that partition's memo exactly as the serial scan's
    accumulated memo would, or the stitched DAG shares less than the
    serial one.  (Root and memo travel in one payload so pickling keeps
    their node identities consistent.)
    """
    tuple_set = TupleSet._from_sorted_facts(schema, facts)
    builder = DwarfBuilder(schema, coalesce=coalesce)
    cube = builder.build(tuple_set, close_root=False)
    return cube.root, builder._merge_memo


class ParallelDwarfBuilder:
    """Drop-in parallel replacement for :class:`DwarfBuilder`.

    Parameters
    ----------
    schema:
        The cube schema, as for the serial builder.
    coalesce:
        Suffix coalescing toggle.  ``False`` (the ablation that deep-copies
        every shared branch) routes to the serial builder: without sharing
        there is no merge memo to reason about and the copies blow memory
        up faster than parallelism pays off.
    workers:
        Worker count; ``None`` resolves via :func:`resolve_workers`.
        ``1`` forces the serial path.
    mode:
        ``"auto"`` picks processes for large inputs and threads otherwise;
        ``"process"``, ``"thread"`` and ``"serial"`` force a path (tests
        and benchmarks pin modes explicitly).
    min_parallel_tuples:
        Inputs smaller than this always build serially.
    """

    def __init__(
        self,
        schema: CubeSchema,
        coalesce: bool = True,
        workers: Optional[int] = None,
        mode: str = "auto",
        min_parallel_tuples: int = MIN_PARALLEL_TUPLES,
    ) -> None:
        if mode not in ("auto", "process", "thread", "serial"):
            raise ValueError(f"unknown parallel build mode: {mode!r}")
        self.schema = schema
        self.coalesce = coalesce
        self.workers = resolve_workers(workers)
        self.mode = mode
        self.min_parallel_tuples = min_parallel_tuples

    # ------------------------------------------------------------------
    def build(self, facts: Union[TupleSet, Iterable[Sequence]]) -> DwarfCube:
        """Construct a DWARF cube, partitioning across workers when it pays."""
        tuple_set = facts if isinstance(facts, TupleSet) else TupleSet(self.schema, facts)
        if tuple_set.schema.n_dimensions != self.schema.n_dimensions:
            raise TupleShapeError(
                f"tuple set has {tuple_set.schema.n_dimensions} dimensions, "
                f"builder schema {self.schema.name!r} has {self.schema.n_dimensions}"
            )
        tracer = get_tracer()
        with tracer.span("dwarf.parallel.sort"):
            ordered = tuple_set if tuple_set.is_sorted() else tuple_set.sorted()
        mode = self._effective_mode(len(ordered))
        _M_PARALLEL_BUILDS.labels(mode).inc()
        if mode == "serial":
            return DwarfBuilder(self.schema, coalesce=self.coalesce).build(ordered)

        with tracer.span("dwarf.parallel.partition") as span:
            partitions = self._partition(ordered)
            span.set("partitions", len(partitions))
        if len(partitions) <= 1:
            return DwarfBuilder(self.schema, coalesce=self.coalesce).build(ordered)
        with tracer.span(
            "dwarf.parallel.build_partitions", mode=mode, partitions=len(partitions)
        ):
            parts, pickled = self._build_partitions(partitions, mode)
        with tracer.span("dwarf.parallel.stitch"):
            return self._stitch(parts, n_source_tuples=len(ordered), pickled=pickled)

    # ------------------------------------------------------------------
    def _effective_mode(self, n_tuples: int) -> str:
        if (
            self.mode == "serial"
            or not self.coalesce
            or self.workers <= 1
            or n_tuples == 0
        ):
            return "serial"
        if self.mode != "auto":
            return self.mode
        if n_tuples < self.min_parallel_tuples:
            return "serial"
        return "process" if n_tuples >= MIN_PROCESS_TUPLES else "thread"

    def _partition(self, ordered: TupleSet) -> List[List[FactTuple]]:
        """Split sorted facts into contiguous chunks on dim-0 boundaries.

        Duplicate dimension vectors share a first-dimension member, so they
        can never straddle a chunk boundary.  Chunks are balanced greedily
        toward ``2 × workers`` pieces so one giant first-dimension group
        doesn't serialise the whole build behind a single worker.
        """
        facts = ordered._tuples
        groups: List[List[FactTuple]] = []
        for fact in facts:
            # Adjacent equality mirrors the serial builder's divergence test
            # (`!=` between consecutive key vectors), so whatever the serial
            # scan treats as one first-dimension run stays one atomic group.
            if groups and fact.keys[0] == groups[-1][-1].keys[0]:
                groups[-1].append(fact)
            else:
                groups.append([fact])

        target = max(1, len(facts) // (self.workers * 2))
        chunks: List[List[FactTuple]] = []
        for group in groups:
            if chunks and len(chunks[-1]) < target:
                chunks[-1].extend(group)
            else:
                chunks.append(list(group))
        return chunks

    def _build_partitions(
        self, partitions: List[List[FactTuple]], mode: str
    ) -> Tuple[List[Tuple[DwarfNode, int]], bool]:
        """Build every partition; returns ``(parts, pickled)``.

        ``pickled`` tells :meth:`_stitch` whether the sub-dwarfs crossed a
        process boundary, which invalidates the id-ordering of memo keys.
        """
        max_workers = min(self.workers, len(partitions))
        pool_cls = ProcessPoolExecutor if mode == "process" else ThreadPoolExecutor
        try:
            with pool_cls(max_workers=max_workers) as pool:
                futures = [
                    pool.submit(_build_partition, self.schema, chunk, self.coalesce)
                    for chunk in partitions
                ]
                return [future.result() for future in futures], mode == "process"
        except (OSError, PermissionError):
            # Sandboxes without fork/spawn support: same math, one process.
            return [
                _build_partition(self.schema, chunk, self.coalesce)
                for chunk in partitions
            ], False

    def _stitch(self, parts, n_source_tuples: int, pickled: bool = True) -> DwarfCube:
        """Concatenate open partition roots under one root, then close it.

        Partition roots arrive in first-dimension order with their cells
        already ascending, so simple concatenation preserves the global
        key order every query primitive relies on.  The finisher is seeded
        with every partition's merge memo before closing the root: the
        root close's recursion can re-request an intra-partition merge
        (closing a merged node whose cells are all single-source shares
        from one partition), and the serial scan's accumulated memo would
        have answered it with the shared node.  Memo keys are node tuples
        sorted by ``id``; ids change across a pickle round-trip, so keys
        are re-canonicalised when the parts came from worker processes —
        thread-built parts kept their ids and seed with a plain update.
        """
        root = DwarfNode(0)
        finisher = DwarfBuilder(self.schema, coalesce=self.coalesce)
        memo = finisher._merge_memo
        for part_root, part_memo in parts:
            if pickled:
                for key, merged in part_memo.items():
                    memo[tuple(sorted(key, key=id))] = merged
            else:
                memo.update(part_memo)
            for cell in part_root.cells():
                root.add_cell(cell)
        finisher._close(root)
        cube = DwarfCube(
            self.schema,
            root,
            n_source_tuples=n_source_tuples,
            n_merges=len(memo),
        )
        if checks_enabled():
            # REPRO_CHECK=1 sanitizer mode: the stitched DAG must satisfy
            # the same structural invariants as a serially built cube.
            from repro.analysis.runner import runtime_check

            runtime_check(
                cube, label=f"ParallelDwarfBuilder.build[{self.schema.name}]"
            )
        return cube

    def __repr__(self) -> str:
        return (
            f"ParallelDwarfBuilder(schema={self.schema.name!r}, "
            f"workers={self.workers}, mode={self.mode!r})"
        )


def build_cube_parallel(
    facts: Union[TupleSet, Iterable[Sequence]],
    schema: Optional[CubeSchema] = None,
    coalesce: bool = True,
    workers: Optional[int] = None,
    mode: str = "auto",
) -> DwarfCube:
    """One-call convenience mirroring :func:`repro.dwarf.builder.build_cube`."""
    if schema is None:
        if isinstance(facts, TupleSet):
            schema = facts.schema
        else:
            raise TupleShapeError(
                "build_cube_parallel needs a schema when facts is a plain iterable"
            )
    return ParallelDwarfBuilder(
        schema, coalesce=coalesce, workers=workers, mode=mode
    ).build(facts)
