"""Declarative cube queries: slices, dices, ranges and group-bys.

The point-query path lives on :class:`~repro.dwarf.cube.DwarfCube`; this
module adds the multi-result query primitives the paper's conclusion calls
"efficient query primitives for our DWARF cubes".  A query assigns one
*constraint* per dimension:

``Member(k)``
    fix the dimension to one member (slice);
``In(keys)``
    any of a set of members (dice);
``Range(lo, hi)``
    inclusive member range, using the cube's sorted cell order;
``Each()``
    enumerate every member — the dimension appears in the result
    coordinates (group-by);
``All()``
    aggregate the dimension away via its ALL cells (the default for
    dimensions a query does not mention).

Results stream as ``(coordinates, value)`` pairs where ``coordinates``
contains one entry per ``Each``/``Member``/``In``/``Range`` dimension in
schema order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.core.errors import QueryError
from repro.core.tuples import canonical_member
from repro.dwarf.cell import ALL
from repro.dwarf.cube import DwarfCube
from repro.dwarf.node import DwarfNode


class Constraint:
    """Base class for per-dimension query constraints."""

    #: whether the dimension contributes a coordinate to result rows
    grouped = True

    def matching_cells(self, node: DwarfNode):
        raise NotImplementedError


class Member(Constraint):
    """Fix a dimension to exactly one member."""

    def __init__(self, key) -> None:
        self.key = canonical_member(key)

    def matching_cells(self, node: DwarfNode):
        cell = node.cell(self.key)
        return [cell] if cell is not None else []

    def __repr__(self) -> str:
        return f"Member({self.key!r})"


class In(Constraint):
    """Restrict a dimension to a set of members (dice)."""

    def __init__(self, keys) -> None:
        self.keys = frozenset(map(canonical_member, keys))

    def matching_cells(self, node: DwarfNode):
        return [cell for cell in node.cells() if cell.key in self.keys]

    def __repr__(self) -> str:
        return f"In({sorted(self.keys, key=repr)!r})"


class Range(Constraint):
    """Inclusive range ``lo <= member <= hi`` over one dimension."""

    def __init__(self, lo, hi) -> None:
        if hi < lo:
            raise QueryError(f"empty range: {lo!r}..{hi!r}")
        self.lo = lo
        self.hi = hi

    def matching_cells(self, node: DwarfNode):
        matching = []
        for cell in node.cells():
            try:
                inside = self.lo <= cell.key <= self.hi
            except TypeError:
                continue  # mixed-type member not comparable to the bounds
            if inside:
                matching.append(cell)
        return matching

    def __repr__(self) -> str:
        return f"Range({self.lo!r}, {self.hi!r})"


class Each(Constraint):
    """Enumerate all members of a dimension (group-by)."""

    def matching_cells(self, node: DwarfNode):
        return list(node.cells())

    def __repr__(self) -> str:
        return "Each()"


class All(Constraint):
    """Aggregate a dimension away through its ALL cell."""

    grouped = False

    def matching_cells(self, node: DwarfNode):
        return [node.all_cell] if node.all_cell is not None else []

    def __repr__(self) -> str:
        return "All()"


ConstraintSpec = Union[Constraint, Mapping[str, Constraint], None]


def select(
    cube: DwarfCube,
    constraints: Optional[Mapping[str, Constraint]] = None,
    **by_name: Constraint,
) -> Iterator[Tuple[Tuple, object]]:
    """Run a declarative query against ``cube``.

    Constraints are given as a ``{dimension_name: Constraint}`` mapping or
    as keyword arguments; unmentioned dimensions default to :class:`All`.
    Yields ``(coordinates, value)`` with coordinates for grouped
    dimensions in schema order.

    >>> select(cube, country=Member("Ireland"), city=Each())  # doctest: +SKIP
    """
    if constraints and by_name:
        raise QueryError("pass either a constraints mapping or keywords, not both")
    spec: Dict[str, Constraint] = dict(constraints or by_name)

    schema = cube.schema
    per_level: List[Constraint] = [All()] * schema.n_dimensions
    for name, constraint in spec.items():
        if not isinstance(constraint, Constraint):
            raise QueryError(
                f"constraint for {name!r} must be a Constraint, got {constraint!r}"
            )
        per_level[schema.dimension_index(name)] = constraint

    finalize = schema.aggregator.finalize
    n_dims = schema.n_dimensions

    def walk(node: Optional[DwarfNode], level: int, coords: Tuple):
        if node is None:
            return
        constraint = per_level[level]
        for cell in constraint.matching_cells(node):
            next_coords = coords + (cell.key,) if constraint.grouped else coords
            if level == n_dims - 1:
                yield next_coords, finalize(cell.value)
            else:
                yield from walk(cell.node, level + 1, next_coords)

    if cube.root.n_cells:
        yield from walk(cube.root, 0, ())


def slice_cube(cube: DwarfCube, **fixed) -> Iterator[Tuple[Tuple, object]]:
    """Slice: fix the given dimensions, group by every other dimension."""
    spec: Dict[str, Constraint] = {
        name: Member(member) for name, member in fixed.items()
    }
    for name in cube.schema.dimension_names:
        if name not in spec:
            spec[name] = Each()
    return select(cube, spec)
