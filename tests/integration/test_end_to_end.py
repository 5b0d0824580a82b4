"""End-to-end integration: feed → ETL → DWARF → all four stores → queries."""

import pytest

from repro.core.pipeline import CubeConstructionPipeline
from repro.dwarf.cell import ALL
from repro.dwarf.query import Each, Member, select
from repro.mapping.registry import all_mappers
from repro.smartcity.bikes import BikeFeedGenerator, bikes_pipeline


@pytest.fixture(scope="module")
def feed():
    generator = BikeFeedGenerator(n_stations=18)
    return generator.generate_documents(days=3, total_records=900)


@pytest.fixture(scope="module")
def reference_cube(feed):
    return CubeConstructionPipeline(bikes_pipeline()).build(feed)


@pytest.fixture(scope="module")
def stored(feed):
    """Per schema: the pipeline that stored the feed's cube, its id and
    the stored bytes (Table 4's quantity)."""
    stored = {}
    for mapper in all_mappers():
        pipeline = CubeConstructionPipeline(bikes_pipeline(), mapper)
        schema_id = pipeline.run(feed).schema_id
        stored[mapper.name] = (pipeline, schema_id, mapper.size_bytes())
    return stored


@pytest.fixture(scope="module")
def sizes(stored):
    return {name: size for name, (_, _, size) in stored.items()}


class TestFourSchemasAgree:
    def test_all_mappers_store_and_agree(self, stored, reference_cube):
        """The same cube through all four schemas answers identically."""
        totals = {}
        for name, (pipeline, schema_id, _) in stored.items():
            rebuilt = pipeline.reload(schema_id)
            totals[name] = rebuilt.total()
            assert sorted(rebuilt.leaves()) == sorted(reference_cube.leaves())
        assert len(set(totals.values())) == 1

    def test_sizes_ordered_like_table4(self, sizes):
        """MySQL-DWARF is the largest store (its link-table rows), and
        NoSQL-Min outgrows NoSQL-DWARF (its two secondary indexes)."""
        assert sizes["MySQL-DWARF"] == max(sizes.values()), sizes
        assert sizes["NoSQL-Min"] > sizes["NoSQL-DWARF"], sizes

    @pytest.mark.xfail(strict=True, reason=(
        "EXPERIMENTS.md known deviation 2: columnar SSTable blocks shrank "
        "NoSQL-DWARF, so MySQL-Min reads ~2.4x it, not the paper's near tie"))
    def test_mysql_min_near_nosql_dwarf_like_table4(self, sizes):
        """The paper has MySQL-Min and NoSQL-DWARF within a few percent."""
        assert 0.65 <= sizes["MySQL-Min"] / sizes["NoSQL-DWARF"] <= 1.35, sizes


class TestAnalyticalQueries:
    def test_daily_rhythm_query(self, reference_cube):
        by_daypart = dict(select(reference_cube, daypart=Each()))
        assert set(by_daypart) <= {
            ("night",), ("morning-peak",), ("daytime",), ("evening-peak",), ("evening",),
        }
        assert sum(by_daypart.values()) == reference_cube.total()

    def test_district_slice(self, reference_cube):
        districts = reference_cube.members("district")
        slices = [reference_cube.value(district=d) for d in districts]
        assert sum(slices) == reference_cube.total()

    def test_station_day_matrix(self, reference_cube):
        results = list(select(reference_cube, day=Each(), station=Each()))
        for coords, value in results[:50]:
            assert reference_cube.value({"day": coords[0], "station": coords[1]}) == value

    def test_weekday_functional_dependency_coalesces(self, reference_cube):
        """day fixes weekday, so (day, weekday-ALL) equals (day, weekday)."""
        day = reference_cube.members("day")[0]
        weekday = next(
            coords[1] for coords, _ in select(
                reference_cube, day=Member(day), weekday=Each(),
            )
        )
        assert reference_cube.value(day=day) == reference_cube.value(
            {"day": day, "weekday": weekday}
        )
