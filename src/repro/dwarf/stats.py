"""DWARF cube statistics.

The ``DWARF_Schema`` column family (paper Table 1-A) records ``node_count``,
``cell_count`` and ``size_as_mb`` per schema; these are obtained "by
scanning the DWARF structure in-memory" (paper §4).  This module performs
that scan.  The storage structures the cube lands in report themselves
through their own ``stats()`` methods.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from repro.dwarf.traversal import breadth_first

__all__ = ["CubeStats", "compute_stats"]


class CubeStats(NamedTuple):
    """Counts gathered by one full traversal of a DWARF."""

    node_count: int
    cell_count: int          # ordinary + ALL cells
    leaf_cell_count: int     # cells holding measures
    all_cell_count: int      # one per closed node
    shared_node_count: int   # nodes with >1 parent cell (suffix coalescing)
    max_depth: int           # deepest level observed (== n_dims - 1)
    cells_per_level: Dict[int, int]

    @property
    def estimated_bytes(self) -> int:
        """Rough in-memory footprint used for ``size_as_mb`` previews.

        48 bytes per node and 72 per cell approximate the CPython object
        cost of the ``__slots__`` classes; the stored size is always
        re-probed from the storage engine afterwards (paper §4).
        """
        return 48 * self.node_count + 72 * self.cell_count


def compute_stats(cube) -> CubeStats:
    """Scan ``cube`` once and gather :class:`CubeStats`."""
    node_count = 0
    cell_count = 0
    leaf_cells = 0
    all_cells = 0
    max_depth = 0
    cells_per_level: Dict[int, int] = {}
    parent_counts: Dict[int, int] = {}
    nodes_by_id = {}

    for visit in breadth_first(cube.root):
        if visit.cell is None:
            node_count += 1
            max_depth = max(max_depth, visit.node.level)
            nodes_by_id[id(visit.node)] = visit.node
        else:
            cell_count += 1
            level = visit.node.level
            cells_per_level[level] = cells_per_level.get(level, 0) + 1
            if visit.cell.is_leaf:
                leaf_cells += 1
            else:
                child_id = id(visit.cell.node)
                parent_counts[child_id] = parent_counts.get(child_id, 0) + 1
            if visit.cell.is_all:
                all_cells += 1

    shared = sum(1 for count in parent_counts.values() if count > 1)
    return CubeStats(
        node_count=node_count,
        cell_count=cell_count,
        leaf_cell_count=leaf_cells,
        all_cell_count=all_cells,
        shared_node_count=shared,
        max_depth=max_depth,
        cells_per_level=cells_per_level,
    )

