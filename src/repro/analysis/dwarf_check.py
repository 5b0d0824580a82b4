"""Runtime invariant checker for in-memory DWARF cubes.

Verifies the structural guarantees the construction algorithm promises
(paper §2–3, DESIGN.md "DWARF core"):

* **Reachability / level consistency** — every node reached from the
  root sits at exactly one level, every non-leaf cell points one level
  down, the root is level 0 and leaf cells appear only at the last
  dimension.
* **Cell ordering** — the ordinary cells of every node iterate in
  strictly ascending :func:`~repro.core.tuples.member_sort_key` order
  (range queries and the sorted-merge machinery rely on this).
* **Closure** — every non-empty node of a finished cube has an ALL cell,
  and the ALL chain from the root reaches the leaf level (``members()``
  and every ALL-path query walk it).
* **Suffix-coalescing aliasing** — a closed single-cell interior node
  *shares* its only sub-dwarf with its ALL cell (same object, not a
  copy); this is the sharing that makes DWARF sub-linear in size.
* **ALL aggregates** — the ALL cell of every leaf-level node equals the
  aggregator's merge over its member cells, and every interior ALL
  sub-dwarf totals to the merge of its sibling sub-dwarfs' totals.

:func:`structural_signature` canonicalises a DAG so two cubes compare
equal exactly when they are the same structure.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, List, Optional, Tuple

from repro.analysis.violations import CheckReport
from repro.core.tuples import member_sort_key
from repro.dwarf.cube import DwarfCube
from repro.dwarf.node import DwarfNode
from repro.dwarf.traversal import breadth_first

_CHECKER = "dwarf"

#: Signature key used for ALL cells (orders after every member key).
_ALL_KEY = ("~all~", None)


def _key_of(cell) -> Tuple:
    return _ALL_KEY if cell.is_all else member_sort_key(cell.key)


def _loc(node: DwarfNode, cell=None) -> str:
    if cell is None:
        return f"node@L{node.level}"
    key = "ALL" if cell.is_all else repr(cell.key)
    return f"node@L{node.level}[key={key}]"


def _states_equal(left, right) -> bool:
    """Aggregation-state equality, tolerant of float rounding.

    Recomputing an ALL aggregate may associate merges differently than
    construction did; integer states (the paper's ``measure int``) are
    exact, float-bearing states allow a relative tolerance.
    """
    if isinstance(left, tuple) and isinstance(right, tuple):
        return len(left) == len(right) and all(
            _states_equal(a, b) for a, b in zip(left, right)
        )
    if isinstance(left, float) or isinstance(right, float):
        try:
            return left == right or abs(left - right) <= 1e-9 * max(
                1.0, abs(left), abs(right)
            )
        except TypeError:
            return False
    return left == right


def dwarf_check(cube: DwarfCube, coalesce: bool = True) -> CheckReport:
    """Check every structural invariant of ``cube``; never raises.

    ``coalesce=False`` relaxes the aliasing rule for ablation cubes built
    with suffix coalescing disabled (their ALL sub-dwarfs are copies by
    design).
    """
    report = CheckReport("dwarf_check")
    schema = cube.schema
    n_dims = schema.n_dimensions
    leaf_level = n_dims - 1
    agg = schema.aggregator

    report.check(
        cube.root.level == 0, _CHECKER, "dwarf.root-level",
        _loc(cube.root), f"root node has level {cube.root.level}, expected 0",
    )

    nodes: List[DwarfNode] = []
    for visit in breadth_first(cube.root):
        node, cell = visit.node, visit.cell
        if cell is None:
            nodes.append(node)
            report.check(
                0 <= node.level <= leaf_level, _CHECKER, "dwarf.level-range",
                _loc(node),
                f"node level {node.level} outside [0, {leaf_level}]",
            )
            if node.n_cells > 0:
                report.check(
                    node.is_closed, _CHECKER, "dwarf.unclosed",
                    _loc(node), "non-empty node of a finished cube has no ALL cell",
                )
            continue

        if cell.is_leaf:
            report.check(
                node.level == leaf_level, _CHECKER, "dwarf.leaf-level",
                _loc(node, cell),
                f"leaf cell at interior level {node.level} (leaves live at "
                f"level {leaf_level})",
            )
        else:
            report.check(
                cell.node.level == node.level + 1, _CHECKER, "dwarf.child-level",
                _loc(node, cell),
                f"cell points at a level-{cell.node.level} node; expected "
                f"level {node.level + 1}",
            )
            report.check(
                cell.value is None, _CHECKER, "dwarf.pointer-value",
                _loc(node, cell), "non-leaf cell carries an aggregation state",
            )

    for node in nodes:
        _check_cell_order(report, node)
        _check_aliasing(report, node, leaf_level, coalesce)

    _check_all_chain(report, cube)
    _check_all_aggregates(report, nodes, leaf_level, agg)
    return report


# ----------------------------------------------------------------------
# individual rules
# ----------------------------------------------------------------------
def _check_cell_order(report: CheckReport, node: DwarfNode) -> None:
    previous = None
    for cell in node.cells():
        key = member_sort_key(cell.key)
        if previous is not None:
            report.check(
                previous < key, _CHECKER, "dwarf.cell-order",
                _loc(node, cell),
                "cells out of ascending member order (range scans rely on it)",
            )
        else:
            report.record()
        previous = key


def _check_aliasing(
    report: CheckReport, node: DwarfNode, leaf_level: int, coalesce: bool
) -> None:
    """A closed single-cell node must *share* its sub-dwarf with ALL."""
    if node.n_cells != 1 or not node.is_closed:
        return
    only = next(node.cells())
    if node.level == leaf_level:
        report.check(
            _states_equal(node.all_cell.value, only.value),
            _CHECKER, "dwarf.all-aggregate", _loc(node),
            f"single-cell leaf node: ALL state {node.all_cell.value!r} != "
            f"member state {only.value!r}",
        )
    elif coalesce:
        report.check(
            node.all_cell.node is only.node,
            _CHECKER, "dwarf.coalesce-alias", _loc(node),
            "single-cell node's ALL sub-dwarf is a copy, not the shared "
            "sub-dwarf (SuffixCoalesce must alias, paper §2)",
        )


def _check_all_chain(report: CheckReport, cube: DwarfCube) -> None:
    node: Optional[DwarfNode] = cube.root
    if node.n_cells == 0:
        return
    for level in range(cube.schema.n_dimensions - 1):
        ok = report.check(
            node is not None and node.all_cell is not None
            and node.all_cell.node is not None,
            _CHECKER, "dwarf.all-chain",
            f"node@L{level}",
            "ALL chain from the root is broken before the leaf level",
        )
        if not ok:
            return
        node = node.all_cell.node


def _check_all_aggregates(
    report: CheckReport, nodes: List[DwarfNode], leaf_level: int, agg
) -> None:
    """ALL == merge(members), at every level.

    ``total(node)`` is the aggregate over every fact beneath ``node``
    (merge over its ordinary cells' sub-totals).  Two invariants follow:
    a leaf node's ALL cell holds exactly ``total(node)``, and an interior
    node's ALL sub-dwarf totals to the merge of its children's totals.
    Totals are memoised by node identity, so shared sub-dwarfs — the DAG
    — are computed once.
    """
    totals: Dict[int, object] = {}

    def total(node: DwarfNode):
        cached = totals.get(id(node))
        if cached is not None or id(node) in totals:
            return cached
        if node.n_cells == 0:
            result = None
        elif node.level == leaf_level:
            result = reduce(agg.merge, (c.value for c in node.cells()))
        else:
            subtotals = [total(c.node) for c in node.cells()]
            subtotals = [s for s in subtotals if s is not None]
            result = reduce(agg.merge, subtotals) if subtotals else None
        totals[id(node)] = result
        return result

    for node in nodes:
        if node.n_cells == 0 or not node.is_closed:
            continue
        expected = total(node)
        if node.level == leaf_level:
            report.check(
                _states_equal(node.all_cell.value, expected),
                _CHECKER, "dwarf.all-aggregate", _loc(node),
                f"ALL state {node.all_cell.value!r} != merge of member "
                f"states {expected!r}",
            )
        elif node.all_cell.node is not None:
            report.check(
                _states_equal(total(node.all_cell.node), expected),
                _CHECKER, "dwarf.all-aggregate", _loc(node),
                f"ALL sub-dwarf totals {total(node.all_cell.node)!r} != merge "
                f"of member sub-dwarf totals {expected!r}",
            )


# ----------------------------------------------------------------------
# structural signatures
# ----------------------------------------------------------------------
def structural_signature(cube: DwarfCube) -> Tuple:
    """A canonical, shape-and-sharing-sensitive signature of the DAG.

    Nodes are numbered in first-visit DFS order; a re-encountered node
    contributes a ``("ref", id)`` marker instead of its expansion, so two
    cubes compare equal **iff** they have identical topology *including*
    which sub-dwarfs are shared — the property a delta merge guarantees
    relative to a cold rebuild, and the property a bi-directional mapper
    must preserve through storage.
    """
    ids: Dict[int, int] = {}

    def signature(node: DwarfNode) -> Tuple:
        known = ids.get(id(node))
        if known is not None:
            return ("ref", known)
        ids[id(node)] = assigned = len(ids)
        entries = []
        for cell in node.all_cells():
            key = _key_of(cell)
            if cell.is_leaf:
                entries.append((key, "=", cell.value))
            else:
                entries.append((key, ">", signature(cell.node)))
        return ("node", assigned, node.level, tuple(entries))

    return signature(cube.root)

