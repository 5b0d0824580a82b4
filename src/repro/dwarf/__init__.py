"""DWARF cube core: structures, construction, traversal and queries.

Implements the DWARF model of Sismanis et al. (SIGMOD 2002) as used by
the EDBT'16 paper: prefix/suffix-coalesced cubes built from sorted fact
tuples, plus the query primitives and the hierarchical extension the
paper discusses.
"""

from repro.dwarf.builder import DwarfBuilder, build_cube
from repro.dwarf.cell import ALL, DwarfCell
from repro.dwarf.cube import DwarfCube
from repro.dwarf.delta import DeltaDwarfBuilder, merge_cubes
from repro.dwarf.hierarchy import DimensionHierarchy, drilldown, rollup
from repro.dwarf.node import DwarfNode
from repro.dwarf.query import All, Constraint, Each, In, Member, Range, select, slice_cube
from repro.dwarf.stats import CubeStats, compute_stats
from repro.dwarf.subcube import extract_subcube
from repro.dwarf.traversal import Visit, breadth_first, iter_cells, iter_nodes
from repro.dwarf.xml_io import export_cube_xml, import_cube_xml

__all__ = [
    "ALL",
    "All",
    "Constraint",
    "CubeStats",
    "DeltaDwarfBuilder",
    "DimensionHierarchy",
    "DwarfBuilder",
    "DwarfCell",
    "DwarfCube",
    "DwarfNode",
    "Each",
    "In",
    "Member",
    "Range",
    "Visit",
    "breadth_first",
    "build_cube",
    "compute_stats",
    "drilldown",
    "export_cube_xml",
    "extract_subcube",
    "import_cube_xml",
    "iter_cells",
    "iter_nodes",
    "merge_cubes",
    "rollup",
    "select",
    "slice_cube",
]
