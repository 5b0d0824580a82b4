"""The in-memory DWARF cube object and its query surface."""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

from repro.core.errors import QueryError
from repro.core.schema import CubeSchema
from repro.core.tuples import canonical_member
from repro.dwarf.cell import ALL, DwarfCell
from repro.dwarf.node import DwarfNode


class DwarfCube:
    """A constructed DWARF cube.

    Instances are produced by :class:`~repro.dwarf.builder.DwarfBuilder`
    (or rebuilt from storage by a mapper) and are immutable from the
    caller's point of view.

    Attributes
    ----------
    schema:
        The :class:`~repro.core.schema.CubeSchema` the cube was built for.
    root:
        The top-level :class:`~repro.dwarf.node.DwarfNode`.
    n_source_tuples:
        Number of fact tuples consumed during construction.
    n_merges:
        Number of distinct sub-dwarf merges performed by SuffixCoalesce
        (a cheap proxy for how much view computation coalescing shared).
    """

    __slots__ = ("schema", "root", "n_source_tuples", "n_merges", "_stats")

    def __init__(
        self,
        schema: CubeSchema,
        root: DwarfNode,
        n_source_tuples: int = 0,
        n_merges: int = 0,
    ) -> None:
        self.schema = schema
        self.root = root
        self.n_source_tuples = n_source_tuples
        self.n_merges = n_merges
        self._stats = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def value(
        self,
        coordinates: Union[Sequence, Mapping[str, object], None] = None,
        **by_name,
    ):
        """Point query.

        ``coordinates`` is either a full positional vector (one entry per
        dimension, using :data:`repro.dwarf.ALL` for "aggregate over this
        dimension") or a ``{dimension_name: member}`` mapping; dimensions
        not mentioned aggregate to ALL.  Keyword arguments are a shorthand
        for the mapping form.  Returns ``None`` when no fact matches.

        >>> cube.value(country="Ireland")          # doctest: +SKIP
        >>> cube.value(["Ireland", ALL, "Dublin"])  # doctest: +SKIP
        """
        vector = self._coordinate_vector(coordinates, by_name)
        node = self.root
        cell: Optional[DwarfCell] = None
        for key in vector:
            if node is None:
                return None
            cell = node.cell(key)
            if cell is None:
                return None
            node = cell.node
        if cell is None:  # zero-dimension impossible; defensive
            return None
        return self.schema.aggregator.finalize(cell.value)

    def total(self):
        """The grand total: every dimension aggregated to ALL."""
        return self.value([ALL] * self.schema.n_dimensions)

    def members(self, dimension: str) -> Tuple:
        """All members of ``dimension`` present in the cube, sorted.

        Follows ALL cells down to the dimension's level, which by
        construction reaches a node containing every member.
        """
        level = self.schema.dimension_index(dimension)
        node: Optional[DwarfNode] = self.root
        for _ in range(level):
            if node is None or node.all_cell is None:
                return ()
            node = node.all_cell.node
        if node is None:
            return ()
        return tuple(node.keys())

    def leaves(self) -> Iterator[Tuple[Tuple, object]]:
        """Iterate ``(dimension_vector, finalized_value)`` for the base facts.

        Only paths through ordinary cells (no ALL links) are followed, so
        this enumerates exactly the distinct dimension vectors of the
        source fact tuples with their aggregated measures.
        """
        finalize = self.schema.aggregator.finalize

        def walk(node: DwarfNode, prefix: Tuple):
            for cell in node.cells():
                if cell.is_leaf:
                    yield prefix + (cell.key,), finalize(cell.value)
                else:
                    yield from walk(cell.node, prefix + (cell.key,))

        if self.root.n_cells:
            yield from walk(self.root, ())

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _coordinate_vector(
        self,
        coordinates: Union[Sequence, Mapping[str, object], None],
        by_name: Dict[str, object],
    ) -> Tuple:
        n_dims = self.schema.n_dimensions
        if coordinates is not None and by_name:
            raise QueryError("pass either positional coordinates or keywords, not both")
        if coordinates is None:
            coordinates = by_name
        if isinstance(coordinates, Mapping):
            vector = [ALL] * n_dims
            for name, member in coordinates.items():
                vector[self.schema.dimension_index(name)] = canonical_member(member)
            return tuple(vector)
        vector = tuple(map(canonical_member, coordinates))
        if len(vector) != n_dims:
            raise QueryError(
                f"expected {n_dims} coordinates for schema "
                f"{self.schema.name!r}, got {len(vector)}"
            )
        return vector

    @property
    def stats(self):
        """Node/cell counts and size estimate (computed once, cached)."""
        if self._stats is None:
            from repro.dwarf.stats import compute_stats

            self._stats = compute_stats(self)
        return self._stats

    def __repr__(self) -> str:
        return (
            f"DwarfCube(schema={self.schema.name!r}, "
            f"dims={self.schema.n_dimensions}, tuples={self.n_source_tuples})"
        )
