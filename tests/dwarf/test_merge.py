"""merge_cubes: the incremental-maintenance primitive."""

import pytest

from repro.core.errors import SchemaError
from repro.core.schema import CubeSchema
from repro.analysis.dwarf_check import structural_signature
from repro.dwarf import build_cube, merge_cubes

from tests.conftest import SAMPLE_ROWS


class TestMerge:
    def test_merge_equals_rebuild(self, sample_schema):
        left = build_cube(SAMPLE_ROWS[:2], sample_schema)
        right = build_cube(SAMPLE_ROWS[2:], sample_schema)
        merged = merge_cubes(left, right)
        rebuilt = build_cube(SAMPLE_ROWS, sample_schema)
        assert sorted(merged.leaves()) == sorted(rebuilt.leaves())
        assert merged.total() == rebuilt.total()
        assert structural_signature(merged) == structural_signature(rebuilt)

    def test_merge_aggregates_common_vectors(self, sample_schema):
        left = build_cube([("A", "B", "C", 1)], sample_schema)
        right = build_cube([("A", "B", "C", 2)], sample_schema)
        merged = merge_cubes(left, right)
        assert merged.value(["A", "B", "C"]) == 3

    def test_merge_partial_aggregates_correct(self, sample_schema):
        left = build_cube(SAMPLE_ROWS[:3], sample_schema)
        right = build_cube(SAMPLE_ROWS[3:], sample_schema)
        merged = merge_cubes(left, right)
        from repro.dwarf.cell import ALL

        assert merged.value(["Ireland", "Dublin", ALL]) == 8
        assert merged.value([ALL, ALL, ALL]) == 17

    def test_tuple_counts_add(self, sample_schema):
        left = build_cube(SAMPLE_ROWS[:2], sample_schema)
        right = build_cube(SAMPLE_ROWS[2:], sample_schema)
        assert merge_cubes(left, right).n_source_tuples == 4

    def test_schema_mismatch_rejected(self, sample_schema):
        other = CubeSchema("other", ["a", "b", "c"])
        left = build_cube(SAMPLE_ROWS, sample_schema)
        right = build_cube([("x", "y", "z", 1)], other)
        with pytest.raises(SchemaError, match="different schemas"):
            merge_cubes(left, right)

    def test_inputs_unmodified(self, sample_schema):
        left = build_cube(SAMPLE_ROWS[:2], sample_schema)
        right = build_cube(SAMPLE_ROWS[2:], sample_schema)
        before_left = sorted(left.leaves())
        before_right = sorted(right.leaves())
        merge_cubes(left, right)
        assert sorted(left.leaves()) == before_left
        assert sorted(right.leaves()) == before_right

    def test_iterated_window_merging(self, sample_schema):
        """Stream-window pattern: repeated delta merges equal one rebuild."""
        rows = [(f"c{i % 3}", f"t{i % 5}", f"s{i}", i) for i in range(40)]
        standing = build_cube(rows[:10], sample_schema)
        for start in range(10, 40, 10):
            delta = build_cube(rows[start:start + 10], sample_schema)
            standing = merge_cubes(standing, delta)
        rebuilt = build_cube(rows, sample_schema)
        assert sorted(standing.leaves()) == sorted(rebuilt.leaves())
        assert standing.total() == rebuilt.total()
        assert structural_signature(standing) == structural_signature(rebuilt)
