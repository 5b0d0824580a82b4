"""DWARF construction: structure, coalescing and aggregate correctness."""

import pytest

from repro.core.errors import SchemaError
from repro.core.schema import CubeSchema
from repro.core.tuples import TupleSet
from repro.dwarf.builder import DwarfBuilder, build_cube
from repro.dwarf.cell import ALL
from repro.dwarf.stats import compute_stats
from repro.dwarf.traversal import iter_nodes

from tests.conftest import SAMPLE_ROWS


class TestBasicConstruction:
    def test_root_has_top_dimension_members(self, sample_cube):
        assert set(sample_cube.root.keys()) == {"Ireland", "France"}

    def test_every_node_is_closed(self, sample_cube):
        for node in iter_nodes(sample_cube.root):
            assert node.is_closed

    def test_total_is_sum_of_measures(self, sample_cube):
        assert sample_cube.total() == 17

    def test_point_values(self, sample_cube):
        assert sample_cube.value(["Ireland", "Dublin", "Fenian St"]) == 3
        assert sample_cube.value(["France", "Paris", "Rue Cler"]) == 7

    def test_partial_aggregates(self, sample_cube):
        assert sample_cube.value(["Ireland", ALL, ALL]) == 10
        assert sample_cube.value(["Ireland", "Dublin", ALL]) == 8
        assert sample_cube.value([ALL, "Dublin", ALL]) == 8

    def test_unsorted_input_gives_same_cube(self, sample_schema):
        shuffled = [SAMPLE_ROWS[2], SAMPLE_ROWS[0], SAMPLE_ROWS[3], SAMPLE_ROWS[1]]
        cube = build_cube(shuffled, sample_schema)
        assert sorted(cube.leaves()) == sorted(build_cube(SAMPLE_ROWS, sample_schema).leaves())
        assert cube.total() == 17

    def test_n_source_tuples_recorded(self, sample_cube):
        assert sample_cube.n_source_tuples == 4


class TestDuplicateTuples:
    def test_duplicate_vectors_aggregate(self, sample_schema):
        rows = [("IE", "D", "S1", 2), ("IE", "D", "S1", 3)]
        cube = build_cube(rows, sample_schema)
        assert cube.value(["IE", "D", "S1"]) == 5
        assert cube.total() == 5

    def test_duplicates_do_not_add_cells(self, sample_schema):
        rows = [("IE", "D", "S1", 2)] * 5
        cube = build_cube(rows, sample_schema)
        # one member per level + one ALL cell per node
        assert cube.stats.leaf_cell_count == 2  # S1 + the leaf ALL cell


class TestSingleDimension:
    def test_one_dimension_cube(self):
        schema = CubeSchema("one", ["k"])
        cube = build_cube([("a", 1), ("b", 2)], schema)
        assert cube.value(["a"]) == 1
        assert cube.total() == 3
        assert cube.root.level == 0
        assert cube.root.all_cell.is_leaf


class TestSuffixCoalescing:
    def test_single_cell_node_shares_subdwarf(self, sample_schema):
        cube = build_cube([("IE", "D", "S1", 2), ("IE", "D", "S2", 3)], sample_schema)
        # country node has one cell 'IE'; its ALL must point at IE's node.
        ie_cell = cube.root.cell("IE")
        assert cube.root.all_cell.node is ie_cell.node

    def test_coalescing_shrinks_cube(self, sample_facts):
        coalesced = DwarfBuilder(sample_facts.schema, coalesce=True).build(sample_facts)
        exploded = DwarfBuilder(sample_facts.schema, coalesce=False).build(sample_facts)
        c_stats = compute_stats(coalesced)
        e_stats = compute_stats(exploded)
        assert c_stats.node_count < e_stats.node_count
        assert c_stats.shared_node_count > 0
        assert e_stats.shared_node_count == 0

    def test_coalescing_more_than_halves_a_bike_cube(self, bike_bundle):
        """On feed data, private views cost over twice the nodes and cells."""
        _, facts, coalesced = bike_bundle
        exploded = DwarfBuilder(facts.schema, coalesce=False).build(facts)
        assert exploded.total() == coalesced.total()
        assert exploded.stats.node_count > 2 * coalesced.stats.node_count
        assert exploded.stats.cell_count > 2 * coalesced.stats.cell_count

    def test_no_coalesce_cube_answers_identically(self, sample_facts):
        coalesced = DwarfBuilder(sample_facts.schema, coalesce=True).build(sample_facts)
        exploded = DwarfBuilder(sample_facts.schema, coalesce=False).build(sample_facts)
        probes = [
            ["Ireland", ALL, ALL],
            [ALL, "Dublin", ALL],
            [ALL, ALL, "Rue Cler"],
            [ALL, ALL, ALL],
            ["France", "Paris", "Rue Cler"],
        ]
        for probe in probes:
            assert coalesced.value(probe) == exploded.value(probe)

    def test_merge_memoisation_shares_views(self, sample_schema):
        # Two countries with identical city/station sub-structure: the
        # ALL-subtree merges coalesce.
        rows = [
            ("A", "X", "s1", 1), ("A", "Y", "s2", 2),
            ("B", "X", "s1", 4), ("B", "Y", "s2", 8),
        ]
        cube = build_cube(rows, sample_schema)
        assert cube.value([ALL, "X", "s1"]) == 5
        assert cube.value([ALL, ALL, "s2"]) == 10


class TestEdgeCases:
    def test_empty_input_builds_empty_cube(self, sample_schema):
        cube = build_cube([], sample_schema)
        assert cube.total() is None
        assert cube.n_source_tuples == 0
        assert list(cube.leaves()) == []

    def test_build_cube_without_schema_rejects_plain_iterable(self):
        with pytest.raises(SchemaError):
            build_cube([("a", 1)])

    def test_build_cube_uses_tupleset_schema(self, sample_schema):
        ts = TupleSet(sample_schema, SAMPLE_ROWS)
        assert build_cube(ts).schema is sample_schema

    def test_mixed_type_members_in_one_dimension(self):
        schema = CubeSchema("m", ["k", "j"])
        cube = build_cube([(1, "a", 1), ("x", "b", 2), (2, "a", 4)], schema)
        assert cube.value([1, ALL]) == 1
        assert cube.value(["x", ALL]) == 2
        assert cube.total() == 7

    def test_negative_measures(self, sample_schema):
        cube = build_cube([("A", "B", "C", -5), ("A", "B", "D", 3)], sample_schema)
        assert cube.value(["A", ALL, ALL]) == -2


class TestAggregatorVariants:
    @pytest.mark.parametrize(
        "agg,expected_total", [("sum", 17), ("count", 4), ("min", 2), ("max", 7)]
    )
    def test_distributive_aggregators(self, agg, expected_total):
        schema = CubeSchema("c", ["country", "city", "station"], aggregator=agg)
        cube = build_cube(SAMPLE_ROWS, schema)
        assert cube.total() == expected_total

    def test_avg_cube(self):
        schema = CubeSchema("c", ["country", "city", "station"], aggregator="avg")
        cube = build_cube(SAMPLE_ROWS, schema)
        assert cube.total() == pytest.approx(17 / 4)
        assert cube.value(country="Ireland") == pytest.approx(10 / 3)
