"""All four storage mappers: store, info, size, bi-directional reload.

Parametrised over the paper's four schemas so every mapper satisfies the
same contract; schema-specific behaviour is tested separately below.
"""

import math

import pytest

from repro.dwarf.builder import build_cube
from repro.dwarf.cell import ALL
from repro.mapping.base import MappingError, transform_cube
from repro.mapping.mysql_dwarf import MySQLDwarfMapper
from repro.mapping.mysql_min import MySQLMinMapper
from repro.mapping.nosql_dwarf import NoSQLDwarfMapper
from repro.mapping.nosql_min import NoSQLMinMapper
from repro.mapping.registry import MAPPER_FACTORIES, all_mappers, make_mapper

from tests.conftest import SAMPLE_ROWS

ALL_MAPPERS = [MySQLDwarfMapper, MySQLMinMapper, NoSQLDwarfMapper, NoSQLMinMapper]


@pytest.fixture(params=ALL_MAPPERS, ids=lambda cls: cls.name)
def mapper(request):
    instance = request.param()
    instance.install()
    return instance


class TestMapperContract:
    def test_store_returns_id_one(self, mapper, sample_cube):
        assert mapper.store(sample_cube) == 1

    def test_sequential_schema_ids(self, mapper, sample_cube):
        assert mapper.store(sample_cube) == 1
        assert mapper.store(sample_cube) == 2

    def test_info_counts(self, mapper, sample_cube):
        schema_id = mapper.store(sample_cube)
        info = mapper.info(schema_id)
        stats = sample_cube.stats
        assert info.node_count == stats.node_count
        assert info.cell_count == stats.cell_count

    def test_info_unknown_id(self, mapper):
        with pytest.raises(MappingError):
            mapper.info(42)

    def test_store_before_install_rejected(self, sample_cube):
        for factory in MAPPER_FACTORIES.values():
            with pytest.raises(MappingError, match="install"):
                factory().store(sample_cube)

    def test_roundtrip_identical(self, mapper, sample_cube):
        schema_id = mapper.store(sample_cube)
        rebuilt = mapper.load(schema_id)
        assert sorted(rebuilt.leaves()) == sorted(sample_cube.leaves())
        assert rebuilt.total() == sample_cube.total()
        assert rebuilt.value(["Ireland", "Dublin", ALL]) == 8
        assert rebuilt.stats.node_count == sample_cube.stats.node_count
        assert rebuilt.stats.cell_count == sample_cube.stats.cell_count
        # The transformation records encode the complete DAG.
        assert transform_cube(rebuilt).nodes == transform_cube(sample_cube).nodes
        assert transform_cube(rebuilt).cells == transform_cube(sample_cube).cells

    def test_roundtrip_restores_schema_metadata(self, mapper, sample_cube):
        schema_id = mapper.store(sample_cube)
        rebuilt = mapper.load(schema_id)
        assert rebuilt.schema.dimension_names == sample_cube.schema.dimension_names
        assert rebuilt.schema.aggregator.name == "sum"

    def test_load_with_explicit_schema(self, mapper, sample_cube):
        schema_id = mapper.store(sample_cube)
        rebuilt = mapper.load(schema_id, schema=sample_cube.schema)
        assert rebuilt.schema is sample_cube.schema
        assert rebuilt.total() == sample_cube.total()

    def test_two_cubes_coexist(self, mapper, sample_cube, sample_schema):
        other = build_cube([("Spain", "Madrid", "Sol", 9)], sample_schema)
        first = mapper.store(sample_cube)
        second = mapper.store(other)
        assert mapper.load(first).total() == 17
        assert mapper.load(second).total() == 9

    def test_size_probe_writes_back(self, mapper, sample_cube):
        schema_id = mapper.store(sample_cube, probe_size=True)
        info = mapper.info(schema_id)
        assert info.size_as_bytes > 0
        # the sample cube is < 1 MB (paper: "< 1")
        assert info.size_as_mb == math.floor(info.size_as_bytes / (1024 * 1024))
        assert mapper.size_bytes() > 0

    def test_reset_clears(self, mapper, sample_cube):
        mapper.store(sample_cube)
        mapper.reset()
        with pytest.raises(MappingError):
            mapper.info(1)
        assert mapper.store(sample_cube) == 1

    def test_install_idempotent(self, mapper, sample_cube):
        mapper.install()
        mapper.install()
        assert mapper.store(sample_cube) == 1

    def test_mixed_member_types_roundtrip(self, mapper):
        from repro.core.schema import CubeSchema

        schema = CubeSchema("mixed", ["day", "hour", "flag"])
        cube = build_cube(
            [("2015-06-01", 8, True, 3), ("2015-06-01", 9, False, 4), ("2015-06-02", 8, True, 5)],
            schema,
        )
        rebuilt = mapper.load(mapper.store(cube))
        assert sorted(rebuilt.leaves()) == sorted(cube.leaves())
        assert rebuilt.value(hour=8) == 8


class TestRegistry:
    def test_factories_cover_paper_schemas(self):
        assert list(MAPPER_FACTORIES) == [
            "MySQL-DWARF", "MySQL-Min", "NoSQL-DWARF", "NoSQL-Min",
        ]

    def test_make_mapper_installs(self, sample_cube):
        mapper = make_mapper("NoSQL-DWARF")
        assert mapper.store(sample_cube) == 1

    def test_make_mapper_unknown(self):
        with pytest.raises(KeyError):
            make_mapper("Mongo-DWARF")

    def test_all_mappers(self):
        assert [m.name for m in all_mappers()] == list(MAPPER_FACTORIES)


class TestSchemaSpecifics:
    def test_nosql_dwarf_has_three_paper_column_families(self):
        mapper = NoSQLDwarfMapper()
        mapper.install()
        keyspace = mapper.engine.keyspace(mapper.keyspace_name)
        for table in ("dwarf_schema", "dwarf_node", "dwarf_cell"):
            assert keyspace.has_table(table)

    def test_nosql_dwarf_has_no_secondary_indexes(self, sample_cube):
        mapper = NoSQLDwarfMapper()
        mapper.install()
        mapper.store(sample_cube)
        keyspace = mapper.engine.keyspace(mapper.keyspace_name)
        assert all(not table.indexes for table in keyspace.tables)

    def test_nosql_min_has_two_secondary_indexes(self):
        mapper = NoSQLMinMapper()
        mapper.install()
        table = mapper.engine.keyspace(mapper.keyspace_name).table("dwarf_cell")
        assert {ix.column for ix in table.indexes} == {"parentNodeId", "childNodeId"}

    def test_nosql_min_stores_no_node_rows(self, sample_cube):
        mapper = NoSQLMinMapper()
        mapper.install()
        mapper.store(sample_cube)
        keyspace = mapper.engine.keyspace(mapper.keyspace_name)
        assert not keyspace.has_table("dwarf_node")

    def test_nosql_min_index_queries_work(self, sample_cube):
        """The indexes the schema pays for must actually serve queries."""
        mapper = NoSQLMinMapper()
        mapper.install()
        mapper.store(sample_cube)
        session = mapper.session
        roots = session.execute(
            "SELECT parentNodeId FROM dwarf_cell WHERE root = true AND cubeid = 1 ALLOW FILTERING"
        )
        (entry,) = {row["parentNodeId"] for row in roots}
        rows = session.execute(
            "SELECT * FROM dwarf_cell WHERE parentNodeId = ?", (entry,)
        )
        assert len(rows) == 3  # Ireland, France + root ALL cell

    def test_mysql_dwarf_link_tables_populated(self, sample_cube):
        mapper = MySQLDwarfMapper()
        mapper.install()
        mapper.store(sample_cube)
        stats = sample_cube.stats
        session = mapper.session
        n_children = session.execute("SELECT COUNT(*) FROM NODE_CHILDREN").one()["count"]
        n_pointers = session.execute("SELECT COUNT(*) FROM CELL_CHILDREN").one()["count"]
        assert n_children == stats.cell_count
        assert n_pointers == stats.cell_count - stats.leaf_cell_count

    def test_mysql_dwarf_join_query(self, sample_cube):
        mapper = MySQLDwarfMapper()
        mapper.install()
        mapper.store(sample_cube)
        rows = mapper.session.execute(
            "SELECT c.cell_key FROM NODE_CHILDREN nc JOIN CELL c ON nc.cell_id = c.id "
            "WHERE nc.node_id = 1"
        )
        keys = {r["c.cell_key"] for r in rows}
        assert "s:France" in keys and "s:Ireland" in keys

    def test_mysql_min_single_cell_table(self, sample_cube):
        mapper = MySQLMinMapper()
        mapper.install()
        mapper.store(sample_cube)
        database = mapper.engine.database(mapper.database_name)
        assert database.has_table("DWARF_CELL")
        assert not database.has_table("NODE")
        assert len(database.table("DWARF_CELL")) == sample_cube.stats.cell_count

