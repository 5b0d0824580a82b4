"""Declarative select against a stored cube."""

import pytest

from repro.dwarf.builder import build_cube
from repro.dwarf.query import Each, In, Member, Range, select
from repro.mapping.base import MappingError
from repro.mapping.mysql_dwarf import MySQLDwarfMapper
from repro.mapping.mysql_min import MySQLMinMapper
from repro.mapping.nosql_dwarf import NoSQLDwarfMapper
from repro.mapping.stored_query import stored_select


@pytest.fixture
def stored(sample_cube):
    mapper = NoSQLDwarfMapper()
    mapper.install()
    schema_id = mapper.store(sample_cube)
    return mapper, schema_id, sample_cube


class TestStoredSelect:
    def test_group_by_matches_in_memory(self, stored):
        mapper, schema_id, cube = stored
        from_storage = dict(stored_select(mapper, schema_id, city=Each()))
        in_memory = dict(select(cube, city=Each()))
        assert from_storage == in_memory

    def test_member_slice(self, stored):
        mapper, schema_id, cube = stored
        result = dict(stored_select(mapper, schema_id, country=Member("Ireland")))
        assert result == {("Ireland",): 10}

    def test_in_dice(self, stored):
        mapper, schema_id, cube = stored
        result = dict(
            stored_select(mapper, schema_id, city=In(["Dublin", "Paris"]), country=Each())
        )
        assert result == dict(
            select(cube, city=In(["Dublin", "Paris"]), country=Each())
        )

    def test_no_constraints_is_grand_total(self, stored):
        mapper, schema_id, cube = stored
        assert list(stored_select(mapper, schema_id)) == [((), cube.total())]

    def test_full_leaf_enumeration(self, stored):
        mapper, schema_id, cube = stored
        spec = {name: Each() for name in cube.schema.dimension_names}
        assert sorted(stored_select(mapper, schema_id, spec)) == sorted(cube.leaves())

    def test_range_over_int_members(self):
        from repro.core.schema import CubeSchema

        schema = CubeSchema("h", ["hour", "station"])
        cube = build_cube([(8, "a", 1), (9, "a", 2), (17, "b", 4)], schema)
        mapper = NoSQLDwarfMapper()
        mapper.install()
        schema_id = mapper.store(cube)
        result = dict(stored_select(mapper, schema_id, hour=Range(8, 9)))
        assert result == {(8,): 1, (9,): 2}

    def test_answers_on_mysql_min(self, sample_cube):
        mapper = MySQLMinMapper()
        mapper.install()
        schema_id = mapper.store(sample_cube)
        for strategy in ("walk", "scan"):
            assert dict(stored_select(mapper, schema_id, strategy=strategy, city=Each())) == (
                dict(select(sample_cube, city=Each()))
            )

    def test_scan_needs_cells_that_carry_their_parent(self, sample_cube):
        mapper = MySQLDwarfMapper()
        mapper.install()
        schema_id = mapper.store(sample_cube)
        assert list(stored_select(mapper, schema_id)) == [((), sample_cube.total())]
        with pytest.raises(MappingError, match="do not carry their parent node"):
            list(stored_select(mapper, schema_id, strategy="scan"))

    def test_rejects_non_constraint(self, stored):
        mapper, schema_id, _ = stored
        from repro.core.errors import QueryError

        with pytest.raises(QueryError):
            list(stored_select(mapper, schema_id, city="Dublin"))


def test_cold_filtered_scan_skips_blocks_and_answers_like_the_cube():
    """A filtered scan-strategy select over freshly flushed columnar
    blocks, block cache empty: zone maps refute the co-resident cube's
    blocks unread, and every answer equals the in-memory select."""
    from repro.core.schema import CubeSchema
    from repro.dwarf.builder import DwarfBuilder

    schema = CubeSchema("c", ["d1", "d2", "d3"])
    other = DwarfBuilder(schema).build(
        [(f"o{i % 11}", i % 13, f"x{i % 5}", 1) for i in range(600)]
    )
    cube = DwarfBuilder(schema).build(
        [(f"m{i % 9}", i % 17, f"y{i % 7}", i) for i in range(600)]
    )
    mapper = NoSQLDwarfMapper()
    mapper.install()
    mapper.store(other, probe_size=False)
    schema_id = mapper.store(cube, probe_size=False)
    tables = mapper.engine.keyspace(mapper.keyspace_name).tables
    for table in tables:
        table.flush()
        table._block_cache.clear()
    cells = mapper.engine.keyspace(mapper.keyspace_name).table("dwarf_cell")
    assert cells.stats().columnar_blocks > 0
    skipped = cells.stats().blocks_skipped
    for spec in ({"d1": Member("m3")}, {"d1": In(["m1", "m4"]), "d2": Member(4)},
                 {"d1": Member("m2"), "d2": Each()}):
        got = list(stored_select(mapper, schema_id, strategy="scan", **spec))
        assert got == list(select(cube, **spec)), spec
    assert cells.stats().blocks_skipped > skipped
