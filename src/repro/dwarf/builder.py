"""DWARF cube construction.

Implements the construction algorithm of Sismanis et al. ("Dwarf: shrinking
the petacube", SIGMOD 2002) that the EDBT'16 paper builds on:

* the fact tuples are sorted by dimension order;
* a single scan builds the tree top-down, so tuples sharing a dimension
  prefix share a path (**prefix coalescing**);
* whenever a node will receive no further cells it is *closed*: its ALL
  cell is computed by **SuffixCoalesce** — a single-cell node shares its
  only sub-dwarf instead of materialising a copy, and merges of sub-dwarfs
  share every branch that exists in only one input.

The result is a DAG in which a node may have several parent cells, the
"multiple-inheritance" structure the paper's transformation step must guard
against with a lookup table.

``coalesce=False`` disables all pointer sharing (every shared sub-dwarf is
deep-copied), which is the ablation quantifying how much of DWARF's
compression comes from suffix coalescing.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.flags import checks_enabled
from repro.core.errors import SchemaError, TupleShapeError
from repro.core.schema import CubeSchema
from repro.core.tuples import (
    TupleSet,
    canonical_member,
    make_member_key_memo,
    member_sort_key,
)
from repro.dwarf.cell import ALL, DwarfCell
from repro.dwarf.cube import DwarfCube
from repro.dwarf.node import DwarfNode
from repro.telemetry import get_registry, get_tracer, wall_clock

_REGISTRY = get_registry()
_M_BUILDS = _REGISTRY.counter("dwarf_builds_total", "DWARF cubes built")
_M_MEMO_HITS = _REGISTRY.counter(
    "dwarf_merge_memo_hits_total", "suffix-coalesce merges served from the memo"
)
_M_MERGES = _REGISTRY.counter("dwarf_merges_total", "sub-dwarf merges performed")
_H_BUILD_SECONDS = _REGISTRY.histogram(
    "dwarf_build_seconds", "wall time of DwarfBuilder.build"
)

#: Total order for dimension members of possibly mixed types (canonical
#: definition lives in :mod:`repro.core.tuples`; re-exported here because
#: the mapping layer historically imports it from the builder).
_member_key = member_sort_key


class DwarfBuilder:
    """Builds :class:`~repro.dwarf.cube.DwarfCube` objects from fact tuples.

    Parameters
    ----------
    schema:
        The cube schema; its aggregator defines how measures combine.
    coalesce:
        Enable suffix coalescing (the default, and what the paper
        evaluates).  Disabling it materialises every aggregate view as a
        private copy — exponentially larger, used only for ablations.
    """

    def __init__(self, schema: CubeSchema, coalesce: bool = True) -> None:
        self.schema = schema
        self.coalesce = coalesce
        self._aggregator = schema.aggregator
        # Memo of sub-dwarf merges; keys hold the input nodes themselves so
        # identical merge requests return the shared result (and so node
        # identities can never be recycled underneath the memo).
        self._merge_memo: Dict[Tuple[DwarfNode, ...], DwarfNode] = {}
        # Memoised member sort keys: merge key unions re-rank the same
        # members thousands of times per build, and sharing one key tuple
        # per distinct member keeps the sort on the identity fast path.
        self._member_key_memo = make_member_key_memo()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def build(self, facts: Union[TupleSet, Iterable[Sequence]]) -> DwarfCube:
        """Construct a DWARF cube from fact tuples.

        ``facts`` may be a :class:`TupleSet` or any iterable of flat
        ``(d1, ..., dn, measure)`` rows (the paper's Fig. 1 input format).
        Every NaN member becomes :data:`math.nan`, so all NaN facts of a
        dimension share one cell.
        """
        tuple_set = facts if isinstance(facts, TupleSet) else TupleSet(self.schema, facts)
        if tuple_set.schema.n_dimensions != self.schema.n_dimensions:
            raise TupleShapeError(
                f"tuple set has {tuple_set.schema.n_dimensions} dimensions, "
                f"builder schema {self.schema.name!r} has {self.schema.n_dimensions}"
            )
        t0 = wall_clock()
        tracer = get_tracer()
        with tracer.span("dwarf.build", schema=self.schema.name, tuples=len(tuple_set)):
            with tracer.span("dwarf.sort"):
                ordered = tuple_set if tuple_set.is_sorted() else tuple_set.sorted()
            self._merge_memo.clear()
            self._member_key_memo = make_member_key_memo()

            n_dims = self.schema.n_dimensions
            agg = self._aggregator
            root = DwarfNode(0)
            path: List[Optional[DwarfNode]] = [root] + [None] * (n_dims - 1)
            prev: Optional[Tuple] = None

            with tracer.span("dwarf.scan"):
                for fact in ordered:
                    keys = fact.keys
                    if prev is not None:
                        divergence = self._divergence(prev, keys)
                        if divergence == n_dims:
                            # Identical dimension vector: fold the measure into the
                            # existing leaf cell.
                            leaf = path[n_dims - 1].cell(canonical_member(keys[-1]))
                            leaf.value = agg.merge(leaf.value, agg.lift(fact.measure))
                            continue
                        # Nodes strictly below the divergence point will never be
                        # revisited in sorted order: close them (SuffixCoalesce).
                        for level in range(n_dims - 1, divergence, -1):
                            self._close(path[level])
                    else:
                        divergence = 0
                    # Open the new path below the divergence point.
                    for level in range(divergence, n_dims - 1):
                        child = DwarfNode(level + 1)
                        path[level].add_cell(
                            DwarfCell(canonical_member(keys[level]), node=child)
                        )
                        path[level + 1] = child
                    path[n_dims - 1].add_cell(
                        DwarfCell(canonical_member(keys[-1]), value=agg.lift(fact.measure))
                    )
                    prev = keys

                if prev is not None:
                    for level in range(n_dims - 1, -1, -1):
                        self._close(path[level])
            n_merges = len(self._merge_memo)
            self._merge_memo.clear()
            cube = DwarfCube(
                self.schema, root, n_source_tuples=len(tuple_set), n_merges=n_merges
            )
        _M_BUILDS.inc()
        _H_BUILD_SECONDS.observe(wall_clock() - t0)
        if checks_enabled():
            # REPRO_CHECK=1 sanitizer mode: a freshly closed cube must
            # satisfy every structural invariant.
            from repro.analysis.runner import runtime_check

            runtime_check(
                cube,
                label=f"DwarfBuilder.build[{self.schema.name}]",
                coalesce=self.coalesce,
            )
        return cube

    # ------------------------------------------------------------------
    # construction internals
    # ------------------------------------------------------------------
    @staticmethod
    def _divergence(prev: Tuple, keys: Tuple) -> int:
        """Index of the first dimension where two key vectors differ.

        Two NaN members are the same member here, although ``NaN != NaN``.
        """
        for index, (a, b) in enumerate(zip(prev, keys)):
            if a != b and (a == a or b == b):
                return index
        return len(keys)

    def _close(self, node: DwarfNode) -> None:
        """Create ``node``'s ALL cell (the SuffixCoalesce step)."""
        if node.is_closed or node.n_cells == 0:
            return
        leaf_level = node.level == self.schema.n_dimensions - 1
        if leaf_level:
            if node.n_cells == 1 and self.coalesce:
                only = next(node.cells())
                node.all_cell = DwarfCell(ALL, value=only.value)
            else:
                agg = self._aggregator
                state = reduce(agg.merge, (c.value for c in node.cells()))
                node.all_cell = DwarfCell(ALL, value=state)
        else:
            children = [c.node for c in node.cells()]
            if node.n_cells == 1:
                target = children[0] if self.coalesce else self._copy(children[0])
                node.all_cell = DwarfCell(ALL, node=target)
            else:
                node.all_cell = DwarfCell(ALL, node=self._merge(tuple(children)))

    def _merge(self, nodes: Tuple[DwarfNode, ...]) -> DwarfNode:
        """Merge sub-dwarfs into the sub-dwarf of an ALL cell.

        Branches present in a single input are shared, not copied; merges
        of identical input sets are memoised so repeated group-by views
        collapse onto one shared sub-dwarf.
        """
        memo_key: Optional[Tuple[DwarfNode, ...]] = None
        if self.coalesce:
            memo_key = tuple(sorted(nodes, key=id))
            cached = self._merge_memo.get(memo_key)
            if cached is not None:
                _M_MEMO_HITS.inc()
                return cached
        _M_MERGES.inc()

        level = nodes[0].level
        merged = DwarfNode(level)
        leaf_level = level == self.schema.n_dimensions - 1
        # One pass over every input node's cells accumulates the per-key
        # union; probing each node per unique key (the textbook form) costs
        # O(keys × nodes) dict lookups and dominated the construction
        # profile.  Input-node order is preserved per key, so aggregation
        # states merge in exactly the order the probing form produced.
        # Every NaN key unions under math.nan (see canonical_member).
        key_of = self._member_key_memo
        if leaf_level:
            agg_merge = self._aggregator.merge
            states: Dict[object, object] = {}
            for node in nodes:
                for key, cell in node._cells.items():
                    if key != key:
                        key = math.nan
                    if key in states:
                        states[key] = agg_merge(states[key], cell.value)
                    else:
                        states[key] = cell.value
            for key in sorted(states, key=key_of):
                merged.add_cell(DwarfCell(key, value=states[key]))
        else:
            sources_by_key: Dict[object, List[DwarfNode]] = {}
            for node in nodes:
                for key, cell in node._cells.items():
                    if key != key:
                        key = math.nan
                    sources = sources_by_key.get(key)
                    if sources is None:
                        sources_by_key[key] = [cell.node]
                    else:
                        sources.append(cell.node)
            for key in sorted(sources_by_key, key=key_of):
                sources = sources_by_key[key]
                if len(sources) == 1:
                    child = sources[0] if self.coalesce else self._copy(sources[0])
                else:
                    child = self._merge(tuple(sources))
                merged.add_cell(DwarfCell(key, node=child))
        self._close(merged)
        if memo_key is not None:
            self._merge_memo[memo_key] = merged
        return merged

    def _copy(self, node: DwarfNode) -> DwarfNode:
        """Deep copy of a sub-dwarf; only used when coalescing is disabled."""
        clone = DwarfNode(node.level)
        for cell in node.cells():
            if cell.is_leaf:
                clone.add_cell(DwarfCell(cell.key, value=cell.value))
            else:
                clone.add_cell(DwarfCell(cell.key, node=self._copy(cell.node)))
        source_all = node.all_cell
        if source_all is not None:
            if source_all.is_leaf:
                clone.all_cell = DwarfCell(ALL, value=source_all.value)
            else:
                clone.all_cell = DwarfCell(ALL, node=self._copy(source_all.node))
        return clone


def build_cube(
    facts: Union[TupleSet, Iterable[Sequence]],
    schema: Optional[CubeSchema] = None,
    coalesce: bool = True,
) -> DwarfCube:
    """One-call convenience: build a DWARF cube from fact tuples."""
    if schema is None:
        if isinstance(facts, TupleSet):
            schema = facts.schema
        else:
            raise SchemaError("build_cube needs a schema when facts is a plain iterable")
    return DwarfBuilder(schema, coalesce=coalesce).build(facts)
