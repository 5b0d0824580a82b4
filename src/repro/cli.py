"""Command-line interface: ``python -m repro <command>``.

Three commands cover the common workflows:

``generate``
    Write synthetic bike-feed documents (XML or JSON) to a directory —
    useful for feeding external tools or inspecting the feed shape.
``pipeline``
    Run the full paper pipeline on a generated feed: ETL → DWARF →
    storage under a chosen schema, then print cube statistics and a few
    sample queries.
``bench``
    Run the Table 4/5 matrix for chosen datasets/schemas and print the
    paper-style comparison tables.
``ingest``
    Run the incremental-maintenance loop on a dataset's feed: tail the
    document stream in micro-batches, append delta cubes, fold them with
    background merges, compact — then prove the merged cube is
    signature-identical to a cold rebuild over the whole feed.
``check``
    The static-analysis gate: the repo-specific AST lint pass and/or the
    cross-layer invariant suite (build a dataset's cube, store it under
    every schema, and run every structural checker over the results).
``stats``
    Run one instrumented workload (ETL -> build -> store -> stored
    queries) with telemetry force-enabled and print the merged span
    tree, the metrics table, per-operator timings, the query-history
    profiles, and any slow ops — or the same snapshot as JSON /
    Prometheus text via ``--format``.  ``--bundle FILE`` re-renders a
    saved debug bundle offline instead of running a workload.
``top``
    Run the same workload (or read a saved bundle) and print the top
    query fingerprints ranked by total time or p99 latency.
``debug-bundle``
    Run the workload and write a flight-recorder JSON artifact: metrics
    snapshot, merged span tree, slow-op log, query history, plan-cache
    entries, cube epoch rows and every ``REPRO_*`` knob.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.bench.datasets import DATASETS_BY_NAME, current_scale
from repro.bench.reporting import format_table
from repro.bench.runner import DATASET_ORDER, PAPER_TABLE4_MB, PAPER_TABLE5_MS, run_matrix
from repro.mapping.registry import MAPPER_FACTORIES, make_mapper
from repro.mapping.schema_mapping import CQL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Efficient cube construction for smart city data (EDBT'16 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="write synthetic bike-feed documents")
    generate.add_argument("--days", type=int, default=1)
    generate.add_argument("--records", type=int, default=7358)
    generate.add_argument("--format", choices=("xml", "json"), default="xml")
    generate.add_argument("--output", type=Path, required=True, help="output directory")
    generate.add_argument("--seed", type=int, default=20160315)

    pipeline = commands.add_parser("pipeline", help="run feed -> cube -> store -> queries")
    pipeline.add_argument("--days", type=int, default=1)
    pipeline.add_argument("--records", type=int, default=7358)
    pipeline.add_argument(
        "--schema", choices=tuple(MAPPER_FACTORIES), default="NoSQL-DWARF"
    )
    pipeline.add_argument("--seed", type=int, default=20160315)

    bench = commands.add_parser("bench", help="run the Table 4/5 matrix")
    bench.add_argument(
        "--datasets",
        default="Day,Week",
        help=f"comma-separated subset of {','.join(DATASET_ORDER)}",
    )
    bench.add_argument(
        "--schemas",
        default=",".join(MAPPER_FACTORIES),
        help="comma-separated subset of the four schema names",
    )

    ingest = commands.add_parser(
        "ingest", help="run the incremental micro-batch maintenance loop"
    )
    ingest.add_argument(
        "--dataset", default="Day",
        help="dataset name, case-insensitive (default Day)",
    )
    ingest.add_argument(
        "--schema", choices=tuple(MAPPER_FACTORIES), default="NoSQL-DWARF",
        help="storage schema maintained by the loop",
    )
    ingest.add_argument(
        "--batch", type=int, default=None, metavar="DOCS",
        help="documents per micro-batch (default REPRO_INGEST_BATCH or 64)",
    )
    ingest.add_argument(
        "--merge-every", type=int, default=None, metavar="DELTAS",
        help="fold pending deltas after this many appends "
        "(default REPRO_MERGE_DELTAS or 4)",
    )
    ingest.add_argument(
        "--no-compact", action="store_true",
        help="leave tombstoned rows in place after the final merge",
    )

    check = commands.add_parser("check", help="run the lint + invariant gate")
    check.add_argument(
        "--lint",
        action="store_true",
        help="run the AST lint pass over src/repro",
    )
    check.add_argument(
        "--invariants",
        nargs="?",
        const="Month",
        default=None,
        metavar="DATASET",
        help="run the invariant suite on DATASET (default Month when the "
        "flag is given bare; plain `repro check` uses Day)",
    )
    check.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated lint rule ids to run (e.g. REPRO008,REPRO009);"
        " default: all; unknown ids exit 2",
    )
    check.add_argument(
        "--exclude-rules", default=None, metavar="IDS",
        help="comma-separated lint rule ids to skip",
    )
    check.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="lint findings as text (default), a JSON report, or a "
        "SARIF 2.1.0 document",
    )
    check.add_argument(
        "--out", type=Path, default=None,
        help="also write the --format payload to this file",
    )
    check.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help="only fail on lint findings absent from this baseline file "
        "(see analysis-baseline.json); stale entries are reported",
    )
    check.add_argument(
        "--write-baseline", type=Path, default=None, metavar="FILE",
        help="write the current lint findings to FILE as a new baseline "
        "and exit 0",
    )

    stats = commands.add_parser(
        "stats", help="run an instrumented workload and print its telemetry"
    )
    stats.add_argument(
        "--dataset", default="Month",
        help="dataset name, case-insensitive (default Month)",
    )
    stats.add_argument(
        "--schema", choices=tuple(MAPPER_FACTORIES), default="NoSQL-DWARF",
        help="storage schema for the store/query phases",
    )
    stats.add_argument(
        "--format", choices=("text", "json", "prom"), default="text",
        help="text report, JSON snapshot, or Prometheus exposition",
    )
    stats.add_argument(
        "--out", type=Path, default=None,
        help="also write the --format payload to this file",
    )
    stats.add_argument(
        "--bundle", type=Path, default=None, metavar="FILE",
        help="re-render a saved debug bundle offline instead of "
        "running a workload",
    )

    top = commands.add_parser(
        "top", help="rank query fingerprints by total time or p99 latency"
    )
    top.add_argument(
        "--dataset", default="Month",
        help="dataset name, case-insensitive (default Month)",
    )
    top.add_argument(
        "--schema", choices=tuple(MAPPER_FACTORIES), default="NoSQL-DWARF",
        help="storage schema for the workload",
    )
    top.add_argument(
        "--by", choices=("total", "p99"), default="total",
        help="ranking key: total wall time (default) or p99 latency",
    )
    top.add_argument(
        "--limit", type=int, default=10, metavar="N",
        help="show at most N fingerprints (default 10)",
    )
    top.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text table (default) or the ranked profiles as JSON",
    )
    top.add_argument(
        "--bundle", type=Path, default=None, metavar="FILE",
        help="rank a saved debug bundle's query history instead of "
        "running a workload",
    )

    debug_bundle = commands.add_parser(
        "debug-bundle", help="write a flight-recorder JSON debug bundle"
    )
    debug_bundle.add_argument(
        "--dataset", default="Month",
        help="dataset name, case-insensitive (default Month)",
    )
    debug_bundle.add_argument(
        "--schema", choices=tuple(MAPPER_FACTORIES), default="NoSQL-DWARF",
        help="storage schema for the workload",
    )
    debug_bundle.add_argument(
        "--out", type=Path, required=True,
        help="path for the bundle JSON artifact",
    )
    return parser


def _cmd_generate(args) -> int:
    from repro.smartcity.bikes import BikeFeedGenerator
    from repro.smartcity.city import CityModel

    feed = BikeFeedGenerator(CityModel(seed=args.seed))
    documents = feed.generate_documents(
        days=args.days, total_records=args.records, content_type=args.format
    )
    args.output.mkdir(parents=True, exist_ok=True)
    for document in documents:
        path = args.output / f"snapshot_{document.sequence:05d}.{args.format}"
        path.write_text(document.content, encoding="utf-8")
    batch = documents.batch()
    print(
        f"wrote {len(documents)} {args.format} documents "
        f"({batch.size_mb:.2f} MB, {args.records} records) to {args.output}"
    )
    return 0


def _cmd_pipeline(args) -> int:
    from repro.core.pipeline import CubeConstructionPipeline
    from repro.smartcity.bikes import BikeFeedGenerator, bikes_pipeline
    from repro.smartcity.city import CityModel

    feed = BikeFeedGenerator(CityModel(seed=args.seed))
    documents = feed.generate_documents(days=args.days, total_records=args.records)
    mapper = make_mapper(args.schema)
    pipeline = CubeConstructionPipeline(bikes_pipeline(), mapper)
    report = pipeline.run(documents)
    print(
        f"{report.n_documents} documents -> {report.n_facts} facts -> "
        f"DWARF {report.n_nodes} nodes / {report.n_cells} cells -> "
        f"{args.schema} schema_id={report.schema_id} "
        f"({mapper.size_bytes() / 1048576:.2f} MB)"
    )
    cube = pipeline.reload(report.schema_id)
    print(f"grand total:        {cube.total()}")
    for dimension in ("daypart", "district", "status"):
        member = cube.members(dimension)[0]
        print(f"{dimension} = {member!r}: {cube.value(**{dimension: member})}")
    return 0


def _cmd_bench(args) -> int:
    datasets = [name.strip() for name in args.datasets.split(",") if name.strip()]
    schemas = [name.strip() for name in args.schemas.split(",") if name.strip()]
    for name in datasets:
        if name not in DATASETS_BY_NAME:
            print(f"unknown dataset {name!r}; choose from {DATASET_ORDER}", file=sys.stderr)
            return 2
    for name in schemas:
        if name not in MAPPER_FACTORIES:
            print(f"unknown schema {name!r}; choose from {tuple(MAPPER_FACTORIES)}",
                  file=sys.stderr)
            return 2

    results = run_matrix(datasets=datasets, schemas=schemas)
    size_rows = {}
    time_rows = {}
    for schema in schemas:
        paper4 = dict(zip(DATASET_ORDER, PAPER_TABLE4_MB[schema]))
        paper5 = dict(zip(DATASET_ORDER, PAPER_TABLE5_MS[schema]))
        size_rows[f"{schema} (paper)"] = [paper4[d] for d in datasets]
        time_rows[f"{schema} (paper)"] = [paper5[d] for d in datasets]
        cells = [r for r in results if r.schema == schema]
        size_rows[f"{schema} (measured)"] = [
            round(next(c.size_mb for c in cells if c.dataset == d), 2) for d in datasets
        ]
        time_rows[f"{schema} (measured)"] = [
            round(next(c.insert_ms for c in cells if c.dataset == d)) for d in datasets
        ]
    note = f"REPRO_SCALE={current_scale():g}; paper values are full-scale"
    print(format_table("Table 4: size (MB) to store a DWARF cube", datasets, size_rows, note))
    print()
    print(format_table("Table 5: time (ms) to insert a DWARF cube", datasets, time_rows, note))
    return 0


def _print_report(report) -> bool:
    print(report.summary())
    for line in report.format_lines():
        print(f"  {line}")
    return report.ok


def _sample_query_vectors(cube, limit: int = 8):
    """A few point/ALL coordinate vectors covering every dimension."""
    from repro.dwarf.cell import ALL

    names = [d.name for d in cube.schema.dimensions]
    vectors = [tuple(ALL for _ in names)]
    for index, name in enumerate(names):
        members = cube.members(name)
        if members:
            vector = [ALL] * len(names)
            vector[index] = members[0]
            vectors.append(tuple(vector))
    point = tuple(
        (cube.members(name) or [ALL])[0] for name in names
    )
    vectors.append(point)
    return vectors[:limit]


def _live_cache_counts():
    """Current process-wide cache counters from the metrics registry."""
    from repro.telemetry import get_registry

    registry = get_registry()
    return {
        (kind, metric): registry.value(f"nosqldb_cache_{metric}_total", kind)
        for kind in ("row", "block")
        for metric in ("hits", "misses")
    }


def _warm_query_pass(mapper, name: str, cube) -> bool:
    """Run sample stored queries twice and surface the cache counters.

    The second (warm) pass must return the same answers as the first and
    as the in-memory cube.  Cache traffic is read as *live* deltas from
    the telemetry registry (``nosqldb_cache_*_total``) — the same
    counters the caches increment on the hot path — so a cache bug that
    silently stops caching (hit rate 0) is visible in the gate logs.
    """
    from repro.dwarf.cell import ALL
    from repro.mapping.stored_query import stored_point_query

    schema_id = mapper.store(cube, is_cube=True)
    names = [d.name for d in cube.schema.dimensions]
    vectors = _sample_query_vectors(cube)
    expected = [
        cube.value(**{n: m for n, m in zip(names, vector) if m is not ALL})
        for vector in vectors
    ]
    before = _live_cache_counts()
    cold = [stored_point_query(mapper, schema_id, vector) for vector in vectors]
    warm = [stored_point_query(mapper, schema_id, vector) for vector in vectors]
    after = _live_cache_counts()
    ok = cold == expected and warm == expected
    status = "answers agree" if ok else f"ANSWERS DIVERGE (cube={expected}, cold={cold}, warm={warm})"
    print(f"stored-query warm pass[{name}]: {len(vectors)} queries x2, {status}")
    if mapper.mapping.backend.block_cache:
        for kind in ("row", "block"):
            hits = after[(kind, "hits")] - before[(kind, "hits")]
            misses = after[(kind, "misses")] - before[(kind, "misses")]
            requests = hits + misses
            rate = hits / requests if requests else 0.0
            print(
                f"  cache[{name}/{kind}]: {hits:.0f}/{requests:.0f} "
                f"hit(s) ({rate:.0%}, live registry delta)"
            )
    return ok


def _count_ingest_spans(spans) -> int:
    """Total count of ``ingest.*`` spans in a merged span forest."""
    total = 0
    for node in spans:
        if node["name"].startswith("ingest."):
            total += node["count"]
        total += _count_ingest_spans(node.get("children", ()))
    return total


def _cmd_ingest(args) -> int:
    from repro.analysis.dwarf_check import structural_signature
    from repro.bench.datasets import load_dataset
    from repro.dwarf.builder import build_cube
    from repro.etl.stream import FeedTailer, resolve_ingest_batch
    from repro.mapping.incremental import CubeMaintainer, resolve_merge_deltas
    from repro.smartcity.bikes import bikes_pipeline
    from repro.telemetry import (
        enable_metrics,
        enable_query_log,
        enable_tracing,
        get_query_log,
        get_registry,
        get_tracer,
        snapshot,
    )

    dataset = _resolve_dataset(args.dataset)
    if dataset is None:
        return 2

    enable_metrics(True)
    enable_tracing(True)
    enable_query_log(True)
    registry, tracer = get_registry(), get_tracer()
    tracer.reset()
    get_query_log().reset()

    bundle = load_dataset(dataset)
    batch_size = resolve_ingest_batch(args.batch)
    merge_every = resolve_merge_deltas(args.merge_every)
    pipeline = bikes_pipeline()
    mapper = make_mapper(args.schema)
    tailer = FeedTailer(bundle.documents, batch_size=batch_size)

    first = tailer.poll()
    if first is None:
        print(f"dataset {dataset} has no documents", file=sys.stderr)
        return 2
    # Not a file handle: CubeMaintainer.open() opens a maintenance epoch.
    maintainer = CubeMaintainer.open(  # repro: noqa[REPRO009]
        mapper, build_cube(pipeline.extract(first.documents))
    )
    n_documents, appends, merges = len(first), 0, 0
    while True:
        batch = tailer.poll()
        if batch is None:
            break
        maintainer.append(pipeline.extract(batch.documents))
        appends += 1
        n_documents += len(batch)
        if maintainer.pending_deltas >= merge_every:
            # Fold in the background — the epoch row keeps foreground
            # queries on the pre-merge overlay until the flip publishes.
            maintainer.merge_async()
            maintainer.wait()
            merges += 1
    if maintainer.pending_deltas:
        maintainer.merge()
        merges += 1
    reclaimed = 0 if args.no_compact else maintainer.compact()

    view = maintainer.view()
    merged = mapper.load(view.base_id)
    signatures_match = structural_signature(merged) == structural_signature(bundle.cube)
    ingest_spans = _count_ingest_spans(snapshot(registry, tracer)["spans"])

    print(
        f"dataset {dataset}: {n_documents} documents tailed in "
        f"{appends + 1} micro-batches of <= {batch_size} "
        f"(watermark {tailer.watermark})"
    )
    print(
        f"{args.schema} logical_id={maintainer.logical_id}: {appends} delta "
        f"append(s), {merges} merge(s) (cadence {merge_every}), final epoch "
        f"{view.epoch}, {reclaimed} tombstoned row(s) compacted"
    )
    print(
        f"merged cube over {bundle.n_tuples} facts: signature "
        + ("IDENTICAL to cold rebuild" if signatures_match
           else "DIVERGES from cold rebuild")
    )
    print(f"ingest.* spans recorded: {ingest_spans}")
    print(f"query-log records: {len(get_query_log())}")
    ok = signatures_match and ingest_spans > 0
    print("ingest: OK" if ok else "ingest: FAILED")
    return 0 if ok else 1


def _check_invariants(dataset: str) -> bool:
    """Run every structural checker over freshly built + stored cubes."""
    from repro.analysis.dwarf_check import dwarf_check
    from repro.analysis.mapping_check import mapping_check
    from repro.analysis.runner import CheckRunner
    from repro.bench.datasets import load_dataset
    from repro.smartcity.bikes import bikes_pipeline
    from repro.telemetry import enable_metrics

    # The warm-query pass reads cache traffic straight from the live
    # registry, so the gate always runs with metrics on.
    enable_metrics(True)

    if dataset not in DATASETS_BY_NAME:
        print(f"unknown dataset {dataset!r}; choose from {DATASET_ORDER}", file=sys.stderr)
        return False

    ok = True
    bundle = load_dataset(dataset)
    print(f"dataset {dataset}: {bundle.n_tuples} tuples (REPRO_SCALE={current_scale():g})")
    ok &= _print_report(dwarf_check(bundle.cube))

    # The incremental-maintenance invariant: folding micro-batch deltas
    # must equal a cold rebuild, structurally and in every answer.
    from repro.analysis.delta_check import delta_check

    rows = list(bikes_pipeline().extract(bundle.documents))
    step = max(1, (len(rows) + 3) // 4)
    partitions = [rows[start : start + step] for start in range(0, len(rows), step)]
    ok &= _print_report(delta_check(bundle.cube.schema, partitions))

    runner = CheckRunner()
    for name in MAPPER_FACTORIES:
        mapper = make_mapper(name)
        ok &= _print_report(mapping_check(mapper, bundle.cube))
        ok &= _warm_query_pass(mapper, name, bundle.cube)
        ok &= _print_report(
            runner.check_all(mapper.space().tables, name=f"storage[{name}]")
        )
    return ok


def _operator_stat_lines(mapper):
    """Per-operator counters from every plan the session has cached."""
    lines = []
    cache = getattr(getattr(mapper, "session", None), "plan_cache", None)
    if cache is None:
        return lines
    for _key, plan in cache.entries():
        stats = getattr(plan, "operator_stats", None)
        if stats is None:
            continue
        for op in stats():
            if not op.calls:
                continue
            where = f" on {op.table}" if op.table else ""
            detail = f" [{op.detail}]" if op.detail else ""
            pushed = ""
            if op.blocks_skipped or op.rows_pruned:
                pushed = (
                    f" blocks_skipped={op.blocks_skipped}"
                    f" rows_pruned={op.rows_pruned}"
                )
            lines.append(
                f"  {op.node}{where}{detail}: calls={op.calls} "
                f"rows_out={op.rows_out} wall={op.seconds * 1000:.3f}ms{pushed}"
            )
    return lines


def _storage_stat_lines(mapper):
    """Per-column-family block-format stats for NoSQL-backed mappers."""
    lines = []
    if mapper.mapping.backend is not CQL:
        return lines
    for table in mapper.space().tables:
        stats = table.stats()
        lines.append(
            f"  {table.name}: block_format={stats.block_format} "
            f"sstables={stats.sstables} columnar_blocks={stats.columnar_blocks} "
            f"fallback_blocks={stats.fallback_blocks} "
            f"blocks_skipped={stats.blocks_skipped} "
            f"dict_hit_ratio={stats.dict_hit_ratio:.2f}"
        )
    return lines


def _resolve_dataset(raw: str) -> Optional[str]:
    """Canonical dataset name (case-insensitive), or None after an error."""
    lookup = {name.lower(): name for name in DATASETS_BY_NAME}
    dataset = lookup.get(raw.lower())
    if dataset is None:
        print(f"unknown dataset {raw!r}; choose from {DATASET_ORDER}",
              file=sys.stderr)
    return dataset


def _run_workload(dataset: str, schema: str):
    """The instrumented observability workload shared by ``stats``,
    ``top`` and ``debug-bundle``: ETL -> build -> store -> reload ->
    stored queries x2, with metrics, tracing and the query log
    force-enabled (and reset, so the report covers exactly this run).

    Returns ``(bundle, mapper, n_queries, ok)`` where ``ok`` means the
    reloaded cube and every stored answer matched the in-memory cube,
    cold and warm.
    """
    from repro.analysis.dwarf_check import structural_signature
    from repro.bench.datasets import clear_cache, load_dataset
    from repro.dwarf.cell import ALL
    from repro.mapping.stored_query import stored_point_query
    from repro.telemetry import (
        enable_metrics,
        enable_query_log,
        enable_tracing,
        get_query_log,
        get_registry,
        get_tracer,
    )

    enable_metrics(True)
    enable_tracing(True)
    enable_query_log(True)
    registry, tracer = get_registry(), get_tracer()
    registry.reset()
    tracer.reset()
    get_query_log().reset()
    clear_cache()  # force a real ETL + build pass under the tracer

    bundle = load_dataset(dataset)
    mapper = make_mapper(schema)
    with tracer.span("mapper.store", schema=mapper.name):
        schema_id = mapper.store(bundle.cube, probe_size=False)
    reloaded = mapper.load(schema_id)  # its span splits storage read from mapper.rebuild

    names = [d.name for d in bundle.cube.schema.dimensions]
    vectors = _sample_query_vectors(bundle.cube)
    expected = [
        bundle.cube.value(**{n: m for n, m in zip(names, v) if m is not ALL})
        for v in vectors
    ]
    cold = [stored_point_query(mapper, schema_id, v) for v in vectors]
    warm = [stored_point_query(mapper, schema_id, v) for v in vectors]
    ok = cold == expected and warm == expected and (
        structural_signature(reloaded) == structural_signature(bundle.cube)
    )
    return bundle, mapper, len(vectors), ok


def _query_log_lines(profiles, limit: int = 10):
    """Text lines for the top fingerprint profiles, total-time order."""
    lines = []
    for p in profiles[:limit]:
        lines.append(
            f"  {p['dialect']:<6} n={p['count']:<4} "
            f"total={p['total_s'] * 1000:8.1f}ms "
            f"p50={p['p50_s'] * 1000:7.2f}ms p99={p['p99_s'] * 1000:7.2f}ms "
            f"rows={p['rows']:<6} {p['fingerprint'][:72]}"
        )
    return lines


def _plan_cache_rows(mapper):
    """Serialized plan-cache entries (key + EXPLAIN rows) for the bundle."""
    rows = []
    cache = getattr(getattr(mapper, "session", None), "plan_cache", None)
    if cache is None:
        return rows
    for key, entry in cache.entries():
        # AnalyzedStatement wraps its SELECT plan; INSERT templates have
        # no EXPLAIN rendering.
        plan = getattr(entry, "plan", entry)
        explain = getattr(plan, "explain", None)
        rows.append(
            {
                "key": list(key) if isinstance(key, tuple) else [key],
                "plan": explain() if callable(explain) else None,
            }
        )
    return rows


def _epoch_rows(mapper):
    """Every row of the mapper's cube-epoch table (empty when absent)."""
    try:
        result = mapper.session.execute(f"SELECT * FROM {mapper.mapping.epochs.name}")
    except Exception:  # epoch table never installed
        return []
    return [dict(row) for row in result] if result is not None else []


def _collect_bundle(mapper):
    """Assemble a validated debug bundle from the live telemetry state."""
    from repro.telemetry import (
        build_bundle,
        get_query_log,
        get_registry,
        get_tracer,
        validate_bundle,
    )

    bundle = build_bundle(
        registry=get_registry(),
        tracer=get_tracer(),
        query_log=get_query_log(),
        plan_cache=_plan_cache_rows(mapper),
        epochs=_epoch_rows(mapper),
    )
    validate_bundle(bundle)
    return bundle


def _load_bundle(path: Path):
    """Read + validate a bundle file; None (after an error) on failure."""
    from repro.telemetry import from_bundle

    try:
        return from_bundle(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"cannot load debug bundle {path}: {exc}", file=sys.stderr)
        return None


def _cmd_stats(args) -> int:
    from repro.telemetry import (
        get_query_log,
        get_registry,
        get_tracer,
        render_metrics_table,
        render_span_tree,
        snapshot,
        to_json,
        to_prometheus,
    )

    if args.bundle is not None:
        # Offline re-render: no workload, no engines — just the artifact.
        bundle = _load_bundle(args.bundle)
        if bundle is None:
            return 2
        snap = bundle["telemetry"]
        profiles = bundle["query_log"]["profiles"]
        mapper = None
        ok = True
        header = (
            f"debug bundle {args.bundle} "
            f"(schema_version {bundle['schema_version']}, "
            f"{len(bundle['query_log']['records'])} query record(s)), "
            "offline re-render"
        )
    else:
        dataset = _resolve_dataset(args.dataset)
        if dataset is None:
            return 2
        data, mapper, n_queries, ok = _run_workload(dataset, args.schema)
        snap = snapshot(get_registry(), get_tracer())
        profiles = get_query_log().profiles()
        header = (
            f"dataset {dataset}: {data.n_tuples} tuples "
            f"(REPRO_SCALE={current_scale():g}), schema {mapper.name}, "
            f"one reload, {n_queries} stored queries x2, "
            f"{'answers agree' if ok else 'ANSWERS DIVERGE'}"
        )

    if args.format == "json":
        payload = to_json(snap)
    elif args.format == "prom":
        payload = to_prometheus(snap)
    else:
        sections = [
            header,
            "",
            "spans",
            render_span_tree(snap["spans"]) or "  (none)",
            "",
            "operators",
        ]
        sections.extend(
            (_operator_stat_lines(mapper) if mapper is not None else [])
            or ["  (none)"]
        )
        storage = _storage_stat_lines(mapper) if mapper is not None else []
        if storage:
            sections += ["", "storage"] + storage
        sections += ["", "metrics", render_metrics_table(snap)]
        sections += ["", "query log"]
        sections.extend(_query_log_lines(profiles) or ["  (none)"])
        dropped = snap.get("slow_ops_dropped", 0)
        sections += ["", f"slow ops ({dropped} dropped)"]
        if snap["slow_ops"]:
            sections.extend(
                f"  {op['name']}: {op['wall_ms']:.1f} ms {op.get('attrs', {})}"
                for op in snap["slow_ops"]
            )
        else:
            sections.append("  (none)")
        payload = "\n".join(sections)

    if args.out is not None:
        args.out.write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    if args.format != "text" or args.out is None:
        print(payload)
    return 0 if ok else 1


def _cmd_top(args) -> int:
    from repro.telemetry import get_query_log

    if args.bundle is not None:
        bundle = _load_bundle(args.bundle)
        if bundle is None:
            return 2
        profiles = bundle["query_log"]["profiles"]
        source = f"debug bundle {args.bundle}"
        ok = True
    else:
        dataset = _resolve_dataset(args.dataset)
        if dataset is None:
            return 2
        _, _, _, ok = _run_workload(dataset, args.schema)
        profiles = get_query_log().profiles()
        source = f"dataset {dataset} ({args.schema})"

    key = "total_s" if args.by == "total" else "p99_s"
    ranked = sorted(profiles, key=lambda p: p[key], reverse=True)[: args.limit]
    if args.format == "json":
        print(json.dumps(ranked, indent=2))
    else:
        print(
            f"top {len(ranked)} of {len(profiles)} fingerprint(s) "
            f"by {args.by}, {source}"
        )
        for line in _query_log_lines(ranked, limit=len(ranked)):
            print(line)
    return 0 if ok else 1


def _cmd_debug_bundle(args) -> int:
    from repro.telemetry import bundle_to_json

    dataset = _resolve_dataset(args.dataset)
    if dataset is None:
        return 2
    _, mapper, _, ok = _run_workload(dataset, args.schema)
    bundle = _collect_bundle(mapper)
    args.out.write_text(bundle_to_json(bundle) + "\n", encoding="utf-8")
    print(
        f"wrote {args.out} (schema_version {bundle['schema_version']}, "
        f"{len(bundle['query_log']['records'])} query record(s), "
        f"{len(bundle['plan_cache'])} cached plan(s), "
        f"{len(bundle['epochs'])} epoch row(s))"
    )
    return 0 if ok else 1


def _split_ids(raw: Optional[str]) -> Optional[list]:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _lint_payload(args, report, new_ids) -> Optional[str]:
    """The ``--format`` payload for the lint report (None for text)."""
    if args.format == "sarif":
        from repro.analysis.sarif import sarif_dumps

        return sarif_dumps(report, new_ids).rstrip("\n")
    if args.format == "json":
        violations = []
        for violation in report.violations:
            entry = dict(violation._asdict())
            if new_ids is not None:
                entry["new"] = id(violation) in new_ids
            violations.append(entry)
        return json.dumps(
            {
                "name": report.name,
                "n_checks": report.n_checks,
                "ok": report.ok,
                "violations": violations,
            },
            indent=2,
        )
    return None


def _cmd_check(args) -> int:
    from repro.analysis.lint import run_lint

    # Plain `repro check` runs both passes; each flag narrows to one
    # (giving both flags is the explicit spelling of the default).
    run_lint_pass = args.lint or args.invariants is None
    dataset = args.invariants
    if dataset is None and not args.lint:
        dataset = "Day"

    ok = True
    if run_lint_pass:
        try:
            report = run_lint(rules=_split_ids(args.rules),
                              exclude_rules=_split_ids(args.exclude_rules))
        except ValueError as exc:
            print(f"check: {exc}", file=sys.stderr)
            return 2
        if args.write_baseline is not None:
            from repro.analysis.baseline import write_baseline

            write_baseline(args.write_baseline, report)
            print(f"wrote baseline {args.write_baseline} "
                  f"({len(report.violations)} finding(s))")
        new_ids = None
        if args.baseline is not None:
            from repro.analysis.baseline import BaselineError, apply_baseline, load_baseline

            try:
                baseline = load_baseline(args.baseline)
            except BaselineError as exc:
                print(f"check: {exc}", file=sys.stderr)
                return 2
            result = apply_baseline(report, baseline)
            new_ids = {id(v) for v in result.new}
            ok &= not result.new
            print(f"{report.summary()} "
                  f"[baseline: {len(result.new)} new, "
                  f"{len(result.known)} known, {len(result.stale)} stale]")
            for violation in result.new:
                print(f"  NEW {violation.format()}")
            for entry in result.stale:
                print(f"  stale baseline entry: [{entry['rule']}] "
                      f"{entry['path']}: {entry['message']}")
        else:
            ok &= report.ok
            if args.format == "text":
                _print_report(report)
        payload = _lint_payload(args, report, new_ids)
        if payload is not None:
            if args.out is not None:
                args.out.write_text(payload + "\n", encoding="utf-8")
                print(f"wrote {args.out}")
            else:
                print(payload)
        elif args.out is not None:
            args.out.write_text(
                "\n".join([report.summary()] + report.format_lines()) + "\n",
                encoding="utf-8")
            print(f"wrote {args.out}")
    if dataset is not None:
        ok &= _check_invariants(dataset)
    print("check: OK" if ok else "check: FAILED")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "pipeline": _cmd_pipeline,
        "bench": _cmd_bench,
        "ingest": _cmd_ingest,
        "check": _cmd_check,
        "stats": _cmd_stats,
        "top": _cmd_top,
        "debug-bundle": _cmd_debug_bundle,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
