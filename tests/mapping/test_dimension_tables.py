"""Dimension tables alongside the stored DWARF (paper §4, Fig. 3)."""

import pytest

from repro.dwarf.builder import build_cube
from repro.mapping.base import MappingError
from repro.mapping.dimension_tables import DimensionTableStore
from repro.mapping.nosql_dwarf import NoSQLDwarfMapper


@pytest.fixture
def mapper():
    m = NoSQLDwarfMapper()
    m.install()
    return m


@pytest.fixture
def store(mapper):
    return DimensionTableStore(mapper)


STATION_ROWS = {
    "Fenian St": {"district": "Dublin 2", "capacity": 30, "latitude": 53.341},
    "Portobello": {"district": "Dublin 8", "capacity": 25, "latitude": 53.33},
}


class TestStore:
    def test_store_and_lookup(self, store):
        assert store.store("Station", STATION_ROWS) == 2
        attrs = store.attributes("Station", "Fenian St")
        assert attrs == {"district": "Dublin 2", "capacity": 30, "latitude": 53.341}

    def test_missing_member(self, store):
        store.store("Station", STATION_ROWS)
        assert store.attributes("Station", "Nowhere") is None

    def test_missing_table(self, store):
        assert store.attributes("Ghost", "x") is None

    def test_integer_members_encoded(self, store):
        store.store("Hour", {8: {"label": "morning"}, 17: {"label": "evening"}})
        assert store.attributes("Hour", 8) == {"label": "morning"}
        # the text "8" is a different member than the int 8
        assert store.attributes("Hour", "8") is None

    def test_empty_rows_rejected(self, store):
        with pytest.raises(MappingError):
            store.store("Station", {})

    def test_mismatched_attributes_rejected(self, store):
        with pytest.raises(MappingError, match="attributes"):
            store.store("Station", {"a": {"x": 1}, "b": {"y": 2}})

    def test_attributes_without_columns_rejected(self, store):
        with pytest.raises(MappingError):
            store.store("Station", {"a": {}})

    def test_an_int_attribute_past_32_bits_is_stored_as_bigint(self, store):
        """The column type comes from the first row: an int attribute is
        ``bigint``, which CQL codes as a varint like ``int``."""
        store.store("Meter", {"m1": {"reading": 2 ** 40}, "m2": {"reading": 7}})
        assert store.attributes("Meter", "m1") == {"reading": 2 ** 40}
        assert store.attributes("Meter", "m2") == {"reading": 7}

    def test_restore_overwrites(self, store):
        store.store("Station", STATION_ROWS)
        updated = {m: dict(a, capacity=99) for m, a in STATION_ROWS.items()}
        store.store("Station", updated)
        assert store.attributes("Station", "Fenian St")["capacity"] == 99


class TestDescribeCell:
    def test_follow_dimension_table_name(self, mapper, store, sample_schema):
        cube = build_cube([("Ireland", "Dublin", "Fenian St", 3)], sample_schema)
        schema_id = mapper.store(cube)
        store.store("Station", STATION_ROWS)
        # find the stored Fenian St cell id
        rows = mapper.session.execute(
            "SELECT * FROM dwarf_cell WHERE key = 's:Fenian St' ALLOW FILTERING"
        )
        cell = rows.one()
        assert cell["dimension_table_name"] == "Station"
        attrs = store.describe_cell(schema_id, cell["id"])
        assert attrs["district"] == "Dublin 2"

    def test_cell_without_dimension_table(self, mapper, store, sample_schema):
        cube = build_cube([("Ireland", "Dublin", "Fenian St", 3)], sample_schema)
        schema_id = mapper.store(cube)
        country_cell = mapper.session.execute(
            "SELECT * FROM dwarf_cell WHERE key = 's:Ireland' ALLOW FILTERING"
        ).one()
        assert store.describe_cell(schema_id, country_cell["id"]) is None

    def test_unknown_cell(self, mapper, store):
        assert store.describe_cell(1, 424242) is None


class TestBikesIntegration:
    def test_station_dimension_from_generator(self, mapper, store):
        from repro.smartcity.bikes import BikeFeedGenerator, bikes_pipeline
        from repro.dwarf.builder import build_cube

        feed = BikeFeedGenerator(n_stations=8)
        docs = feed.generate_documents(days=1, total_records=80)
        cube = build_cube(bikes_pipeline().extract(docs))
        mapper.store(cube)

        rows = {
            s.name: {
                "district": s.district,
                "capacity": s.capacity,
                "latitude": s.latitude,
                "longitude": s.longitude,
            }
            for s in feed.stations
        }
        store.store("Station", rows)
        member = cube.members("station")[0]
        attrs = store.attributes("Station", member)
        assert attrs["capacity"] >= 15
        assert attrs["district"].startswith("Dublin")
