"""Instrumentation smoke: every layer emits spans/metrics when enabled,
and nothing is recorded — no span, metric, slow op or per-operator
clock — when telemetry is disabled."""

import pytest

from repro.dwarf.builder import DwarfBuilder
from repro.dwarf.cell import ALL
from repro.dwarf.query import Each
from repro.mapping.registry import MAPPER_FACTORIES, make_mapper
from repro.mapping.stored_query import stored_cell_count, stored_point_query, stored_select


def span_names(merged, out=None):
    out = [] if out is None else out
    for node in merged:
        out.append(node["name"])
        span_names(node.get("children", ()), out)
    return out


class TestLayerCoverage:
    def test_build_store_query_emit_spans_and_metrics(
        self, live_telemetry, sample_facts, sample_cube
    ):
        registry, tracer = live_telemetry
        registry.reset()  # the cube fixtures may have recorded builds already
        DwarfBuilder(sample_facts.schema).build(sample_facts)
        mapper = make_mapper("NoSQL-DWARF")
        schema_id = mapper.store(sample_cube, probe_size=False)
        vector = ("Ireland", "Dublin", "Portobello")
        assert stored_point_query(mapper, schema_id, vector) == 5

        names = span_names(tracer.merged())
        for expected in ("dwarf.build", "dwarf.sort", "dwarf.scan",
                         "mapper.transform", "stored.point_query"):
            assert expected in names, names

        assert registry.value("dwarf_builds_total") == 1
        assert registry.value("dwarf_merges_total") > 0
        assert registry.value("nosqldb_writes_total") > 0
        assert registry.value("nosqldb_commitlog_appends_total") > 0
        assert registry.value("mapper_stored_queries_total", "NoSQL-DWARF") == 1

    def test_btree_metrics(self, live_telemetry):
        from repro.storage.btree import BTree

        registry, _ = live_telemetry
        tree = BTree(page_capacity=4)
        for i in range(40):
            tree.insert(i, b"v")
        assert registry.value("btree_pages_allocated_total", "leaf") > 1
        assert registry.value("btree_page_splits_total", "leaf") > 0
        assert registry.value("btree_page_splits_total", "internal") > 0

    def test_plan_cache_metrics(self, live_telemetry, sample_cube):
        registry, _ = live_telemetry
        mapper = make_mapper("NoSQL-DWARF")
        schema_id = mapper.store(sample_cube, probe_size=False)
        vector = ("France", "Paris", "Rue Cler")
        stored_point_query(mapper, schema_id, vector)
        stored_point_query(mapper, schema_id, vector)
        assert registry.value("query_plan_cache_misses_total") > 0
        assert registry.value("query_plan_cache_hits_total") > 0


class TestLoadSpans:
    def test_load_splits_into_storage_read_and_rebuild(self, live_telemetry, sample_cube):
        _, tracer = live_telemetry
        mapper = make_mapper("MySQL-DWARF")
        schema_id = mapper.store(sample_cube, probe_size=False)
        tracer.reset()
        mapper.load(schema_id)

        (load,) = [span for span in tracer.roots if span.name == "mapper.load"]
        stats = sample_cube.stats
        # Six cell roles (two joined from the link tables) + the node ids.
        assert load.attrs == {"schema": "MySQL-DWARF", "nodes": stats.node_count,
                              "cells": stats.cell_count, "columns": 7}
        (rebuild,) = [span for span in load.children if span.name == "mapper.rebuild"]
        assert rebuild.attrs["nodes"] == stats.node_count
        assert 0.0 < rebuild.wall_s <= load.wall_s


class TestOperatorClock:
    def test_seconds_accumulate_only_when_tracing(self, sample_cube):
        from repro.telemetry import get_tracer

        def run():
            mapper = make_mapper("NoSQL-DWARF")
            schema_id = mapper.store(sample_cube, probe_size=False)
            stored_point_query(mapper, schema_id, ("France", "Paris", "Rue Cler"))
            seconds = 0.0
            for _key, plan in mapper.session.plan_cache.entries():
                stats = getattr(plan, "operator_stats", None)
                if stats is not None:
                    seconds += sum(op.seconds for op in stats())
            return seconds

        tracer = get_tracer()
        was = tracer.enabled
        try:
            tracer.enabled = False
            assert run() == 0.0
            tracer.enabled = True
            assert run() > 0.0
        finally:
            tracer.enabled = was
            tracer.reset()


class TestDisabledPath:
    def test_stored_queries_record_nothing_with_telemetry_off(self, sample_cube):
        from repro.telemetry import get_registry, get_tracer, snapshot

        registry, tracer = get_registry(), get_tracer()
        was = registry.enabled, tracer.enabled
        registry.enabled = tracer.enabled = False
        registry.reset()
        tracer.reset()
        try:
            for name in MAPPER_FACTORIES:
                mapper = make_mapper(name)
                schema_id = mapper.store(sample_cube, probe_size=False)
                assert stored_point_query(mapper, schema_id, ["Ireland", ALL, ALL]) == 10
                assert dict(stored_select(mapper, schema_id, city=Each()))
                assert stored_cell_count(mapper, schema_id) == sample_cube.stats.cell_count
            snap = snapshot(registry, tracer)
            assert (snap["spans"], snap["metrics"], snap["slow_ops"]) == ([], [], [])
        finally:
            registry.enabled, tracer.enabled = was
            registry.reset()
            tracer.reset()


class TestEtlSpans:
    def test_extract_and_parse_spans(self, live_telemetry, bike_bundle):
        from repro.smartcity.bikes import bikes_pipeline

        registry, tracer = live_telemetry
        documents, _facts, _cube = bike_bundle
        registry.reset()  # the bundle fixture already ran one extract
        tracer.reset()
        facts = bikes_pipeline().extract(documents)
        assert len(facts) > 0
        names = span_names(tracer.merged())
        assert "etl.extract" in names and "etl.parse" in names
        assert registry.value("etl_facts_total") == len(facts)
        assert registry.value("etl_documents_total") == len(documents)


class TestBlockFormatCounts:
    """Flush and compaction spans say what they wrote and what it cost:
    encode, compress and write seconds, and where each row's cells came
    from (the write loop's columns, or a re-split of its bytes)."""

    def test_flush_and_compaction_report_blocks_and_cell_sources(self, live_telemetry):
        from repro.analysis.sstable_check import encode_row
        from repro.nosqldb.columnfamily import Column, ColumnFamily
        from repro.nosqldb.errors import InvalidRequest
        from repro.nosqldb.types import parse_type

        registry, tracer = live_telemetry
        cf = ColumnFamily(
            "t", [Column("id", parse_type("int")), Column("m", parse_type("int"))], "id",
        )
        m = cf.column("m")
        cf.insert({"id": 1, "m": 1})
        cf.flush()
        # a row naming m twice is rejected, nothing written; a replayed
        # row has no run
        with pytest.raises(InvalidRequest, match="more than once"):
            cf.insert_columns([cf.column("id"), m, m], [[2], [5], [6]])
        cf.apply_replayed(2, encode_row(cf, {"id": 2, "m": 6}, 9))
        cf.flush()
        cf.compact()

        def attrs(name, *keys):
            return [
                tuple(span.attrs[key] for key in keys)
                for span in tracer.roots if span.name == name
            ]

        assert attrs("nosqldb.flush", "blocks") == [(1,), (1,)]
        assert attrs("nosqldb.compaction", "blocks") == [(1,)]
        assert cf.stats().columnar_blocks == 1
        assert cf.get(2)["m"] == 6
        # the fresh one-row insert flushes from its run; the replayed row
        # is re-split from its bytes
        assert attrs("nosqldb.flush", "rows_from_columns", "rows_resplit") == [(1, 0), (0, 1)]
        # compaction takes both rows from their blocks' column chunks
        assert attrs("nosqldb.compaction", "rows_from_columns", "rows_resplit") == [(2, 0)]
        assert registry.value("nosqldb_flushed_run_rows_total", "t") == 1
        for span in tracer.roots:
            if span.name in ("nosqldb.flush", "nosqldb.compaction"):
                assert all(span.attrs[key] >= 0 for key in ("encode_s", "compress_s", "write_s"))

class TestFlushFromRuns:
    """Storing a Week-shaped cube on NoSQL-DWARF writes every node and
    cell row in proven-fresh chunks, so the flush takes all of them from
    the write loop's encoded columns: none is re-split from row bytes."""

    def test_week_cube_flushes_node_and_cell_rows_from_runs(self, live_telemetry):
        from repro.dwarf.builder import build_cube
        from repro.smartcity.bikes import BikeFeedGenerator, bikes_pipeline
        from repro.smartcity.city import CityModel

        registry, tracer = live_telemetry
        documents = BikeFeedGenerator(CityModel(7), n_stations=12).generate_documents(
            days=4, total_records=12 * 4 * 84
        )
        cube = build_cube(bikes_pipeline().extract(documents))
        mapper = make_mapper("NoSQL-DWARF")
        mapper.store(cube, probe_size=False)
        tables = {
            table.name: table
            for table in mapper.session.dialect.tables(mapper.engine, mapper.session.namespace)
        }
        for table in tables.values():
            table.flush()
        for name in ("dwarf_node", "dwarf_cell"):
            assert len(tables[name]) > 1000
            assert registry.value("nosqldb_flushed_run_rows_total", name) == len(tables[name])
        flushed = [span for span in tracer.roots if span.name == "nosqldb.flush"]
        assert sum(span.attrs["rows_resplit"] for span in flushed) == 0
