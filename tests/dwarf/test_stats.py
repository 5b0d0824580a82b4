"""Cube statistics: the node_count/cell_count scan of paper §4."""

from repro.dwarf.builder import DwarfBuilder, build_cube
from repro.dwarf.stats import compute_stats


class TestCounts:
    def test_counts_on_sample(self, sample_cube):
        stats = compute_stats(sample_cube)
        assert stats.node_count > 0
        assert stats.cell_count > stats.node_count  # >=1 cell + ALL per node
        assert stats.all_cell_count == stats.node_count  # every node closed

    def test_cells_per_level_sums_to_total(self, sample_cube):
        stats = sample_cube.stats
        assert sum(stats.cells_per_level.values()) == stats.cell_count

    def test_leaf_cells_at_bottom_level(self, sample_cube):
        stats = sample_cube.stats
        bottom = sample_cube.schema.n_dimensions - 1
        assert stats.cells_per_level[bottom] == stats.leaf_cell_count

    def test_shared_nodes_counted(self, sample_facts):
        coalesced = DwarfBuilder(sample_facts.schema, coalesce=True).build(sample_facts)
        assert compute_stats(coalesced).shared_node_count > 0

    def test_estimated_bytes_positive(self, sample_cube):
        assert sample_cube.stats.estimated_bytes > 0

    def test_empty_cube(self, sample_schema):
        cube = build_cube([], sample_schema)
        stats = compute_stats(cube)
        assert stats.node_count == 1  # the open, empty root
        assert stats.cell_count == 0


class TestGrowth:
    def test_more_tuples_more_cells(self, sample_schema):
        small = build_cube([("A", "B", "C", 1)], sample_schema)
        rows = [("A", "B", f"s{i}", i) for i in range(20)]
        big = build_cube(rows, sample_schema)
        assert big.stats.cell_count > small.stats.cell_count
