"""Central catalog of every metric and span name used in instrumentation.

Lint rule REPRO014 checks that any literal name passed to
``registry.counter/gauge/histogram`` or ``tracer.span`` appears here, so
a typo'd name fails lint instead of silently creating a new series.

Keep the tuples sorted; the frozensets are what the rule consults.
"""

from __future__ import annotations

METRIC_NAMES = frozenset(
    (
        "btree_page_splits_total",
        "btree_pages_allocated_total",
        "cube_epoch",
        "delta_merge_seconds",
        "dwarf_build_seconds",
        "dwarf_builds_total",
        "dwarf_delta_builds_total",
        "dwarf_delta_merges_total",
        "dwarf_merge_memo_hits_total",
        "dwarf_merges_total",
        "etl_documents_total",
        "etl_facts_total",
        "etl_inferred_schemas_total",
        "etl_records_total",
        "ingest_batches_total",
        "ingest_documents_total",
        "mapper_compacted_rows_total",
        "mapper_delta_stores_total",
        "mapper_epoch_flips_total",
        "mapper_stored_queries_total",
        "nosqldb_blocks_fallback_total",
        "nosqldb_blocks_skipped_total",
        "nosqldb_cache_evictions_total",
        "nosqldb_cache_hits_total",
        "nosqldb_cache_invalidations_total",
        "nosqldb_cache_misses_total",
        "nosqldb_commitlog_appends_total",
        "nosqldb_commitlog_bytes_total",
        "nosqldb_commitlog_replayed_total",
        "nosqldb_compactions_total",
        "nosqldb_flushed_rows_total",
        "nosqldb_memtable_flushes_total",
        "nosqldb_sstable_rows_written_total",
        "nosqldb_sstables_written_total",
        "nosqldb_writes_total",
        "query_plan_cache_hits_total",
        "query_plan_cache_invalidations_total",
        "query_plan_cache_misses_total",
        "query_pushdown_rows_pruned_total",
        "telemetry_slow_ops_dropped_total",
    )
)

SPAN_NAMES = frozenset(
    (
        "bench.cell",
        "dwarf.build",
        "dwarf.scan",
        "dwarf.sort",
        "etl.extract",
        "etl.infer",
        "etl.parse",
        "ingest.compact",
        "ingest.delta_build",
        "ingest.merge",
        "ingest.poll",
        "ingest.store_delta",
        "mapper.load",
        "mapper.rebuild",
        "mapper.store",
        "mapper.transform",
        "nosqldb.commitlog.replay",
        "nosqldb.compaction",
        "nosqldb.flush",
        "stored.cell_count",
        "stored.point_query",
    )
)
