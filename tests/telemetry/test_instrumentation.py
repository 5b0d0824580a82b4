"""Instrumentation smoke: every layer emits spans/metrics when enabled,
and the kernel's per-operator clock stays off when tracing is disabled."""

from repro.dwarf.builder import DwarfBuilder
from repro.mapping.registry import make_mapper
from repro.mapping.stored_query import stored_point_query


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
    """Flush and compaction spans say what they wrote, including the
    row-major blocks a columnar table fell back to."""

    def test_flush_and_compaction_report_fallback_blocks(self, live_telemetry):
        from repro.nosqldb.columnfamily import Column, ColumnFamily
        from repro.nosqldb.types import parse_type

        registry, tracer = live_telemetry
        cf = ColumnFamily(
            "t", [Column("id", parse_type("int")), Column("m", parse_type("int"))],
            "id", block_format="columnar",
        )
        m = cf.column("m")
        cf.insert({"id": 1, "m": 1})
        cf.flush()
        cf.insert_columns([cf.column("id"), m, m], [[2], [5], [6]])
        cf.flush()
        cf.compact()

        def counts(name):
            return [
                tuple(span.attrs[key] for key in ("blocks", "columnar_blocks", "fallback_blocks"))
                for span in tracer.roots if span.name == name
            ]

        assert counts("nosqldb.flush") == [(1, 1, 0), (1, 0, 1)]
        # compaction re-encodes both rows into one block: refused again
        assert counts("nosqldb.compaction") == [(1, 0, 1)]
        assert registry.value("nosqldb_blocks_fallback_total") == 2
        assert cf.stats().fallback_blocks == 1
        assert cf.get(2)["m"] == 6
