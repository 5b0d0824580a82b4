"""Stored-cube query primitives: all four schemas answer without reload."""

import pytest

from repro.dwarf.builder import build_cube
from repro.dwarf.cell import ALL
from repro.mapping.base import MappingError
from repro.mapping.mysql_dwarf import MySQLDwarfMapper
from repro.mapping.mysql_min import MySQLMinMapper
from repro.mapping.nosql_dwarf import NoSQLDwarfMapper
from repro.mapping.nosql_min import NoSQLMinMapper
from repro.mapping.stored_query import (
    analyze_strategy,
    explain_strategy,
    stored_point_query,
)
from repro.query import ACTUAL_COLUMNS

ALL_MAPPERS = [MySQLDwarfMapper, MySQLMinMapper, NoSQLDwarfMapper, NoSQLMinMapper]


@pytest.fixture(params=ALL_MAPPERS, ids=lambda cls: cls.name)
def stored(request, sample_cube):
    mapper = request.param()
    mapper.install()
    schema_id = mapper.store(sample_cube)
    return mapper, schema_id, sample_cube


class TestStoredPointQuery:
    def test_full_point(self, stored):
        mapper, schema_id, cube = stored
        value = stored_point_query(mapper, schema_id, ["Ireland", "Dublin", "Fenian St"])
        assert value == 3

    def test_partial_all(self, stored):
        mapper, schema_id, cube = stored
        assert stored_point_query(mapper, schema_id, ["Ireland", ALL, ALL]) == 10
        assert stored_point_query(mapper, schema_id, [ALL, "Dublin", ALL]) == 8

    def test_grand_total(self, stored):
        mapper, schema_id, cube = stored
        assert stored_point_query(mapper, schema_id, [ALL, ALL, ALL]) == cube.total()

    def test_missing_member(self, stored):
        mapper, schema_id, _ = stored
        assert stored_point_query(mapper, schema_id, ["Spain", ALL, ALL]) is None
        assert stored_point_query(mapper, schema_id, ["Ireland", "Dublin", "Nowhere"]) is None

    def test_agrees_with_reloaded_cube_everywhere(self, stored):
        mapper, schema_id, cube = stored
        reloaded = mapper.load(schema_id)
        members = [cube.members(d) + (ALL,) for d in cube.schema.dimension_names]
        for country in members[0]:
            for city in members[1][:3]:
                coords = [country, city, ALL]
                assert stored_point_query(mapper, schema_id, coords) == reloaded.value(coords)

    def test_integer_members(self, stored):
        mapper, _, _ = stored
        from repro.core.schema import CubeSchema

        schema = CubeSchema("ints", ["hour", "station"])
        cube = build_cube([(8, "a", 1), (9, "a", 2), (9, "b", 4)], schema)
        schema_id = mapper.store(cube)
        assert stored_point_query(mapper, schema_id, [9, ALL]) == 6
        assert stored_point_query(mapper, schema_id, [8, "a"]) == 1

    def test_second_stored_cube_isolated(self, stored):
        mapper, first_id, cube = stored
        other = build_cube(
            [("Ireland", "Dublin", "Fenian St", 100)], cube.schema
        )
        second_id = mapper.store(other)
        assert stored_point_query(mapper, second_id, [ALL, ALL, ALL]) == 100
        assert stored_point_query(mapper, first_id, [ALL, ALL, ALL]) == cube.total()


class TestPlanLayer:
    def test_explain_strategy_uses_shared_vocabulary(self, stored):
        mapper, schema_id, _ = stored
        plans = explain_strategy(mapper, schema_id)
        assert plans
        for rows in plans.values():
            assert rows
            for row in rows:
                assert set(row) == {"step", "node", "table", "key", "detail"}

    def test_cell_match_is_a_batched_plan(self, stored):
        mapper, schema_id, _ = stored
        plans = explain_strategy(mapper, schema_id)
        nodes = {row["node"] for rows in plans.values() for row in rows}
        details = {row["detail"] for rows in plans.values() for row in rows}
        if mapper.name in ("NoSQL-DWARF", "MySQL-DWARF"):
            assert "MultiGet" in nodes and "Filter" in nodes
        elif mapper.name == "NoSQL-Min":
            # The per-level name match is pushed into the storage layer:
            # no Filter operator remains, the IndexScan renders it.
            assert "IndexScan" in nodes and "Filter" not in nodes
            assert any("pushed=name IN ?1" in detail for detail in details)
        else:  # MySQL-Min reconstructs from one filtered scan
            assert "FullScan" in nodes

    def test_warm_walk_hits_plan_cache(self, stored):
        mapper, schema_id, _ = stored
        stored_point_query(mapper, schema_id, [ALL, ALL, ALL])
        before = mapper.session.plan_cache.stats().hits
        assert stored_point_query(mapper, schema_id, [ALL, ALL, ALL]) is not None
        assert mapper.session.plan_cache.stats().hits > before


def test_warm_nosql_dwarf_walk_hits_the_block_cache(monkeypatch, sample_cube):
    """With the row cache off, a warm pass of stored point queries over
    flushed SSTables reads its blocks from the block cache."""
    monkeypatch.setenv("REPRO_ROW_CACHE_BYTES", "0")  # read at table creation
    mapper = NoSQLDwarfMapper()
    mapper.install()
    schema_id = mapper.store(sample_cube)
    tables = mapper.engine.keyspace(mapper.keyspace_name).tables
    for table in tables:
        table.flush()
    vectors = [["Ireland", ALL, ALL], [ALL, "Dublin", ALL], ["France", "Paris", "Rue Cler"]]

    def query_pass():
        before = sum(table.stats().block_cache.hits for table in tables)
        answers = [stored_point_query(mapper, schema_id, vector) for vector in vectors]
        assert answers == [sample_cube.value(vector) for vector in vectors]
        return sum(table.stats().block_cache.hits for table in tables) - before

    query_pass()  # cold: fills the cache
    assert query_pass() > 0


class TestAnalyzeStrategy:
    def test_answer_matches_plain_run(self, stored):
        mapper, schema_id, _ = stored
        coords = ["Ireland", "Dublin", "Fenian St"]
        plain = stored_point_query(mapper, schema_id, coords)
        out = analyze_strategy(mapper, schema_id, coords)
        assert out["answer"] == plain == 3

    def test_steps_carry_explain_vocabulary_plus_actuals(self, stored):
        mapper, schema_id, _ = stored
        out = analyze_strategy(mapper, schema_id, ["Ireland", ALL, ALL])
        assert out["steps"]
        for rows in out["steps"].values():
            assert rows
            for row in rows:
                assert {"step", "node", "table", "key", "detail"} <= set(row)
                for column in ACTUAL_COLUMNS:
                    assert column in row

    def test_missing_member_analyzes_to_none(self, stored):
        mapper, schema_id, _ = stored
        out = analyze_strategy(mapper, schema_id, ["Spain", ALL, ALL])
        assert out["answer"] is None

    def test_repeated_analysis_is_stable(self, stored):
        """Cumulative counters are framed per run: analyzing twice gives
        the same answer and never-doubled per-step actuals (a warm
        mapper cache may legitimately drop them to zero — the statement
        simply did not re-execute)."""
        mapper, schema_id, _ = stored
        coords = [ALL, "Dublin", ALL]
        first = analyze_strategy(mapper, schema_id, coords)
        second = analyze_strategy(mapper, schema_id, coords)
        assert second["answer"] == first["answer"] == 8
        shared = set(first["steps"]) & set(second["steps"])
        assert shared
        for step in shared:
            for one, two in zip(first["steps"][step], second["steps"][step]):
                if isinstance(one["rows"], int) and isinstance(two["rows"], int):
                    assert two["rows"] <= one["rows"]

    def test_query_log_records_the_stored_walk(self, stored, monkeypatch):
        from repro.telemetry import get_query_log

        log = get_query_log()
        monkeypatch.setattr(log, "enabled", True)
        log.reset()
        try:
            mapper, schema_id, _ = stored
            stored_point_query(mapper, schema_id, ["Ireland", ALL, ALL])
            records = [r for r in log.records() if r.dialect == "stored"]
            assert records
            assert records[-1].fingerprint.startswith(
                f"STORED:{mapper.name.upper()}:POINT_QUERY"
            )
            assert records[-1].rows == 1
        finally:
            log.reset()


class TestAnalyzeWithLiveDeltas:
    """EXPLAIN ANALYZE over a maintained cube whose epoch has unmerged
    delta overlays still answers exactly like the plain stored walk."""

    @pytest.mark.parametrize("mapper_cls", ALL_MAPPERS, ids=lambda c: c.name)
    def test_epoch_overlay_answers_match(self, mapper_cls):
        from repro.core.schema import CubeSchema
        from repro.dwarf.builder import DwarfBuilder
        from repro.mapping.incremental import CubeMaintainer

        schema = CubeSchema("inc", ["d1", "d2", "d3"])
        base = [("a", 1, "x", 5), ("a", 2, "y", 3), ("b", 1, "x", 2)]
        delta = [("a", 1, "x", 4), ("b", 3, "z", 7)]
        mapper = mapper_cls()
        mapper.install()
        maintainer = CubeMaintainer.open(mapper, DwarfBuilder(schema).build(base))
        maintainer.append(delta)
        assert maintainer.pending_deltas == 1  # overlay, not merged

        reference = DwarfBuilder(schema).build(base + delta)
        for probe in (("a", 1, "x"), ("a", ALL, ALL), (ALL, ALL, ALL)):
            expected = reference.value(probe)
            plain = stored_point_query(mapper, maintainer.logical_id, probe)
            out = analyze_strategy(mapper, maintainer.logical_id, probe)
            assert plain == expected
            assert out["answer"] == expected
            assert out["steps"]


def test_unknown_mapper_type_rejected(sample_cube):
    class Fake:
        pass

    with pytest.raises(MappingError, match="strategy"):
        stored_point_query(Fake(), 1, [ALL])

    with pytest.raises(MappingError, match="strategy"):
        explain_strategy(Fake())
