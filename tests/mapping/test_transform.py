"""transform_cube / rebuild_cube: the flat form shared by all mappers."""

import pytest

from repro.core.schema import CubeSchema
from repro.dwarf.builder import build_cube
from repro.mapping.base import (
    ALL_KEY_TEXT,
    MappingError,
    decode_member,
    encode_member,
    rebuild_cube,
    transform_cube,
)
from repro.dwarf.cell import ALL

from tests.conftest import SAMPLE_ROWS


class TestMemberCodec:
    @pytest.mark.parametrize("member", ["Fenian St", 8, -3, 2.5, True, False, "", "i:tricky"])
    def test_round_trip(self, member):
        assert decode_member(encode_member(member)) == member

    def test_all_sentinel(self):
        assert encode_member(ALL) == ALL_KEY_TEXT

    def test_unsupported_type(self):
        with pytest.raises(MappingError):
            encode_member(object())

    def test_corrupt_text(self):
        with pytest.raises(MappingError):
            decode_member("garbage")
        with pytest.raises(MappingError):
            decode_member("z:1")

    def test_types_distinguished(self):
        assert decode_member(encode_member(1)) != decode_member(encode_member("1"))
        assert decode_member(encode_member(True)) is True


class TestTransform:
    def test_counts_match_stats(self, sample_cube):
        transformed = transform_cube(sample_cube)
        stats = sample_cube.stats
        assert len(transformed.nodes) == stats.node_count
        assert len(transformed.cells) == stats.cell_count

    def test_ids_unique_and_sequential(self, sample_cube):
        transformed = transform_cube(sample_cube, first_node_id=10, first_cell_id=100)
        node_ids = [n.node_id for n in transformed.nodes]
        cell_ids = [c.cell_id for c in transformed.cells]
        assert sorted(node_ids) == list(range(10, 10 + len(node_ids)))
        assert sorted(cell_ids) == list(range(100, 100 + len(cell_ids)))

    def test_entry_node_is_root(self, sample_cube):
        transformed = transform_cube(sample_cube)
        root = next(n for n in transformed.nodes if n.is_root)
        assert root.node_id == transformed.entry_node_id
        assert root.level == 0
        assert root.parent_cell_ids == ()

    def test_shared_node_has_multiple_parents(self, sample_cube):
        transformed = transform_cube(sample_cube)
        assert any(len(n.parent_cell_ids) > 1 for n in transformed.nodes)

    def test_children_partition_cells(self, sample_cube):
        transformed = transform_cube(sample_cube)
        listed = sorted(
            cell_id for node in transformed.nodes for cell_id in node.children_cell_ids
        )
        assert listed == sorted(c.cell_id for c in transformed.cells)

    def test_leaf_cells_have_measures(self, sample_cube):
        transformed = transform_cube(sample_cube)
        for cell in transformed.cells:
            if cell.is_leaf:
                assert isinstance(cell.measure, int)
                assert cell.pointer_node_id is None
            else:
                assert cell.measure is None
                assert cell.pointer_node_id is not None

    def test_dimension_table_recorded(self, sample_cube):
        transformed = transform_cube(sample_cube)
        station_cells = [c for c in transformed.cells if c.level == 2]
        assert all(c.dimension_table == "Station" for c in station_cells)

    def test_root_cells_flagged(self, sample_cube):
        transformed = transform_cube(sample_cube)
        root_cells = [c for c in transformed.cells if c.is_root_cell]
        # Ireland, France + the root ALL cell
        assert len(root_cells) == 3

    def test_non_integer_measures_rejected(self):
        schema = CubeSchema("avg", ["a", "b"], aggregator="avg")
        cube = build_cube([("x", "y", 1)], schema)
        with pytest.raises(MappingError, match="measure as int"):
            transform_cube(cube)


class TestRebuild:
    def test_round_trip(self, sample_cube):
        transformed = transform_cube(sample_cube)
        rebuilt = rebuild_cube(
            sample_cube.schema,
            transformed.nodes,
            transformed.cells,
            transformed.entry_node_id,
            n_source_tuples=sample_cube.n_source_tuples,
        )
        assert sorted(rebuilt.leaves()) == sorted(sample_cube.leaves())
        assert rebuilt.total() == sample_cube.total()
        assert rebuilt.value(["Ireland", ALL, ALL]) == 10

    def test_rebuild_preserves_sharing(self, sample_cube):
        transformed = transform_cube(sample_cube)
        rebuilt = rebuild_cube(
            sample_cube.schema, transformed.nodes, transformed.cells,
            transformed.entry_node_id,
        )
        assert rebuilt.stats.node_count == sample_cube.stats.node_count
        assert rebuilt.stats.shared_node_count == sample_cube.stats.shared_node_count

    def test_missing_entry_node(self, sample_cube):
        transformed = transform_cube(sample_cube)
        with pytest.raises(MappingError, match="entry node"):
            rebuild_cube(sample_cube.schema, transformed.nodes, transformed.cells, 99999)

    def test_dangling_pointer(self, sample_cube):
        transformed = transform_cube(sample_cube)
        broken = [
            c._replace(pointer_node_id=99999) if not c.is_leaf else c
            for c in transformed.cells
        ]
        with pytest.raises(MappingError, match="missing node"):
            rebuild_cube(
                sample_cube.schema, transformed.nodes, broken, transformed.entry_node_id
            )


class TestDeriveLevels:
    def test_levels_match_structure(self, sample_cube):
        """Storage keeps no levels: the rebuild derives each node's from
        its distance to the entry node."""
        transformed = transform_cube(sample_cube)
        # Levels the rebuild must not read: every record claims level 0.
        flat = [node._replace(level=0) for node in transformed.nodes]
        rebuilt = rebuild_cube(
            sample_cube.schema, flat, transformed.cells, transformed.entry_node_id
        )
        assert transform_cube(rebuilt).nodes == transformed.nodes
