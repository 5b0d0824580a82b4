"""Delta-DWARF construction: the incremental-maintenance primitive.

The paper's conclusion points at maintenance "without full recompute":
build a small cube from the latest stream window and fold it into the
standing cube.  The enabling property is that a memo-seeded merge of
independently built sub-dwarfs is structurally identical to a cold
rebuild over the union of their inputs, and :class:`DeltaDwarfBuilder`
turns that property into an append path:

* :meth:`~DeltaDwarfBuilder.build_delta` constructs a *delta cube* from
  one micro-batch of facts (an ordinary coalesced build, small because
  the batch is small);
* :meth:`~DeltaDwarfBuilder.merge` folds the base cube and any number of
  delta cubes into a new cube with **one multi-way SuffixCoalesce merge**
  — the same ``_merge`` the serial build uses for ALL cells — so the
  result carries the same prefix/suffix coalescing a rebuild would.

The merging builder is persistent: its merge memo survives across
:meth:`~DeltaDwarfBuilder.merge` calls, so sub-dwarfs shared between the
previous base and the new one (the overwhelming majority under append
workloads) coalesce from the memo instead of being re-merged.
``reset_memo()`` bounds memory between merges.  :func:`merge_cubes` is
the one-call form.

Because the multi-way merge takes its inputs as a *set* (the memo key is
id-sorted and the per-key union is an unordered dict fold over
commutative aggregator states), folding is order-insensitive and
associative: ``merge(base, d1, d2)`` has the same structural signature
as ``merge(base, d2, d1)``, as ``merge(merge(base, d1), d2)`` and as a
cold rebuild over the union of all source tuples — the invariant the
``cube.delta-consistency`` rule and the hypothesis suite verify.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from repro.core.errors import SchemaError
from repro.core.schema import CubeSchema
from repro.core.tuples import TupleSet
from repro.dwarf.builder import DwarfBuilder
from repro.dwarf.cube import DwarfCube
from repro.telemetry import get_registry, get_tracer, wall_clock

__all__ = ["DeltaDwarfBuilder", "merge_cubes"]

_REGISTRY = get_registry()
_M_DELTA_BUILDS = _REGISTRY.counter(
    "dwarf_delta_builds_total", "delta cubes built from micro-batches"
)
_M_DELTA_MERGES = _REGISTRY.counter(
    "dwarf_delta_merges_total", "delta cubes folded into a base cube"
)
_H_DELTA_MERGE_SECONDS = _REGISTRY.histogram(
    "delta_merge_seconds", "wall-clock seconds folding delta cubes into the base"
)


class DeltaDwarfBuilder:
    """Build delta cubes from micro-batches and fold them into a base.

    One instance per maintained cube: the delta builds run through a
    dedicated :class:`DwarfBuilder` (whose per-build memo is reset by
    ``build()`` itself), while folds share a second, *persistent* builder
    whose merge memo seeds every subsequent fold.
    """

    def __init__(self, schema: CubeSchema, coalesce: bool = True) -> None:
        self.schema = schema
        self.coalesce = coalesce
        self._builder = DwarfBuilder(schema, coalesce=coalesce)
        self._merger = DwarfBuilder(schema, coalesce=coalesce)
        self._seeded_roots: set = set()

    # ------------------------------------------------------------------
    @property
    def memo_size(self) -> int:
        """Entries in the persistent fold memo (diagnostics and tests)."""
        return len(self._merger._merge_memo)

    def reset_memo(self) -> None:
        """Drop the persistent fold memo (bounds memory between merges)."""
        self._merger._merge_memo.clear()
        self._seeded_roots.clear()

    def _seed_memo(self, cube: DwarfCube) -> None:
        """Replay ``cube``'s own suffix-coalesce merges into the fold memo.

        A finished cube no longer carries its build memo, but every entry
        is recoverable from the structure itself: a node with more than
        one cell closed its ALL sub-dwarf as ``_merge(children)``, and
        inside each such merge the child under a key shared by several
        inputs is ``_merge`` of exactly those inputs' children.  Seeding
        these entries is what keeps the fold structurally identical to a
        cold rebuild: when the fold re-derives a rollup that lives wholly
        inside one input cube (e.g. a day that only the delta has seen),
        the memo hands back that cube's shared sub-dwarf instead of
        materialising a content-equal copy the rebuild would not have.
        """
        if id(cube.root) in self._seeded_roots:
            return
        self._seeded_roots.add(id(cube.root))
        memo = self._merger._merge_memo
        recorded: set = set()

        def record(result, inputs) -> None:
            if id(result) in recorded:
                return
            recorded.add(id(result))
            memo.setdefault(tuple(sorted(inputs, key=id)), result)
            for key, cell in result._cells.items():
                if cell.is_leaf:
                    continue
                sources = [
                    node._cells[key].node for node in inputs
                    if key in node._cells
                ]
                if len(sources) > 1:
                    record(cell.node, sources)

        seen: set = set()

        def walk(node) -> None:
            if id(node) in seen:
                return
            seen.add(id(node))
            for cell in node._cells.values():
                if not cell.is_leaf:
                    walk(cell.node)
            all_cell = node.all_cell
            if all_cell is not None and not all_cell.is_leaf:
                if node.n_cells > 1:
                    record(all_cell.node, [c.node for c in node.cells()])
                walk(all_cell.node)

        walk(cube.root)

    # ------------------------------------------------------------------
    def build_delta(self, facts: Union[TupleSet, Iterable[Sequence]]) -> DwarfCube:
        """A small coalesced cube over one micro-batch of facts."""
        with get_tracer().span("ingest.delta_build", schema=self.schema.name):
            cube = self._builder.build(facts)
        _M_DELTA_BUILDS.inc()
        return cube

    def merge(self, base: DwarfCube, *deltas: DwarfCube) -> DwarfCube:
        """Fold ``deltas`` into ``base`` with one multi-way merge.

        Returns a new :class:`DwarfCube`; ``base`` and the deltas are not
        mutated (though sub-dwarfs present in a single input are shared,
        not copied, exactly like the serial build's ALL cells).
        """
        for delta in deltas:
            if delta.schema != base.schema:
                raise SchemaError(
                    f"cannot merge cubes with different schemas: "
                    f"{base.schema.name!r} vs {delta.schema.name!r}"
                )
        if not deltas:
            return base
        t0 = wall_clock()
        roots = (base.root,) + tuple(delta.root for delta in deltas)
        with get_tracer().span(
            "ingest.merge", schema=self.schema.name, deltas=len(deltas)
        ):
            if self.coalesce:
                for cube in (base,) + deltas:
                    self._seed_memo(cube)
            root = self._merger._merge(roots)
        merged = DwarfCube(
            self.schema,
            root,
            n_source_tuples=base.n_source_tuples
            + sum(delta.n_source_tuples for delta in deltas),
            n_merges=len(self._merger._merge_memo),
        )
        _M_DELTA_MERGES.inc(len(deltas))
        _H_DELTA_MERGE_SECONDS.observe(wall_clock() - t0)
        from repro.analysis.flags import checks_enabled

        if checks_enabled():
            from repro.analysis.runner import runtime_check

            # REPRO_CHECK=1 sanitizer mode: a freshly folded cube must
            # satisfy the same structural invariants as a cold build.
            runtime_check(
                merged,
                label=f"DeltaDwarfBuilder.merge[{self.schema.name}]",
                coalesce=self.coalesce,
            )
        return merged


def merge_cubes(base: DwarfCube, *deltas: DwarfCube) -> DwarfCube:
    """One-call convenience: fold ``deltas`` into ``base``.

    This is the incremental-maintenance primitive the paper's conclusion
    points at: build a small delta cube from the latest stream window and
    merge it into the standing cube instead of rebuilding from scratch.
    The result is structurally identical to that rebuild.  Keep a
    :class:`DeltaDwarfBuilder` instead to reuse its fold memo across
    merges.
    """
    return DeltaDwarfBuilder(base.schema).merge(base, *deltas)
