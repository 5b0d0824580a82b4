"""Command-line interface: ``python -m repro <command>``.

Six commands cover the common workflows:

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
    The cross-layer invariant suite: build a dataset's cube, store it
    under every schema, and run every structural checker over the
    results.
``stats``
    Run one instrumented workload (ETL -> build -> store -> stored
    queries) with telemetry force-enabled, snapshot it as a debug
    bundle, and print the bundle's report: the merged span tree,
    per-operator counters, storage stats, the metrics table, the
    query-history profiles and the slow ops.  ``--format json|prom``
    prints the bundle itself or its metrics as Prometheus text;
    ``--out FILE`` writes the bundle; ``--bundle FILE`` renders a saved
    bundle offline, through the same report, instead of running a
    workload.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
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

    check = commands.add_parser("check", help="run the invariant suite")
    check.add_argument(
        "--invariants",
        nargs="?",
        const="Month",
        default="Day",
        metavar="DATASET",
        help="run the invariant suite on DATASET, case-insensitive (default "
        "Month when the flag is given bare; plain `repro check` uses Day)",
    )

    stats = commands.add_parser(
        "stats", help="run an instrumented workload and print its debug bundle"
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
        help="text report, the bundle as JSON, or its metrics as "
        "Prometheus exposition",
    )
    stats.add_argument(
        "--out", type=Path, default=None,
        help="also write the debug bundle (JSON) to this file",
    )
    stats.add_argument(
        "--bundle", type=Path, default=None, metavar="FILE",
        help="render a saved debug bundle offline instead of running a "
        "workload",
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
    datasets = [_resolve_dataset(name.strip()) for name in args.datasets.split(",") if name.strip()]
    schemas = [name.strip() for name in args.schemas.split(",") if name.strip()]
    if None in datasets:
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
        get_tracer,
    )

    dataset = _resolve_dataset(args.dataset)
    if dataset is None:
        return 2

    enable_metrics(True)
    enable_tracing(True)
    enable_query_log(True)
    tracer = get_tracer()
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
    maintainer = CubeMaintainer.open(
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
    ingest_spans = _count_ingest_spans(tracer.merged())

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


def _operator_rows(mapper):
    """Counters of every operator that ran in a plan the session has cached."""
    rows = []
    for _key, plan in mapper.session.plan_cache.entries():
        stats = getattr(plan, "operator_stats", None)
        if stats is not None:
            rows += [op._asdict() for op in stats() if op.calls]
    return rows


def _storage_rows(mapper):
    """Per-column-family SSTable block stats for NoSQL-backed mappers."""
    if mapper.mapping.backend is not CQL:
        return []
    rows = []
    for table in mapper.space().tables:
        stats = table.stats()
        rows.append(
            {
                "table": table.name,
                "sstables": stats.sstables,
                "columnar_blocks": stats.columnar_blocks,
                "blocks_skipped": stats.blocks_skipped,
                "dict_hit_ratio": stats.dict_hit_ratio,
            }
        )
    return rows


def _plan_cache_rows(mapper):
    """Serialized plan-cache entries (key + EXPLAIN rows)."""
    rows = []
    for key, entry in mapper.session.plan_cache.entries():
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
    """Every row of the mapper's cube-epoch table (empty when it was
    never installed)."""
    epochs = mapper.mapping.epochs.name
    if not mapper.space().has_table(epochs):
        return []
    return [dict(row) for row in mapper.session.execute(f"SELECT * FROM {epochs}")]


def _resolve_dataset(raw: str) -> Optional[str]:
    """Canonical dataset name (case-insensitive), or None after an error."""
    lookup = {name.lower(): name for name in DATASETS_BY_NAME}
    dataset = lookup.get(raw.lower())
    if dataset is None:
        print(f"unknown dataset {raw!r}; choose from {DATASET_ORDER}",
              file=sys.stderr)
    return dataset


def _run_workload(dataset: str, schema: str):
    """The instrumented observability workload behind ``stats``: ETL ->
    build -> store -> reload -> stored queries x2, with metrics, tracing
    and the query log force-enabled (and reset, so the snapshot covers
    exactly this run).

    Returns the run's debug bundle as its JSON reloads, so a live report
    and an offline one render the same values.  The run header's
    ``answers_agree`` means the reloaded cube and every stored answer
    matched the in-memory cube, cold and warm.
    """
    from repro.analysis.dwarf_check import structural_signature
    from repro.bench.datasets import clear_cache, load_dataset
    from repro.dwarf.cell import ALL
    from repro.mapping.stored_query import stored_point_query
    from repro.telemetry import (
        build_bundle,
        bundle_to_json,
        enable_metrics,
        enable_query_log,
        enable_tracing,
        from_bundle,
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

    data = load_dataset(dataset)
    mapper = make_mapper(schema)
    with tracer.span("mapper.store", schema=mapper.name):
        schema_id = mapper.store(data.cube, probe_size=False)
    reloaded = mapper.load(schema_id)  # its span splits storage read from mapper.rebuild

    names = [d.name for d in data.cube.schema.dimensions]
    vectors = _sample_query_vectors(data.cube)
    expected = [
        data.cube.value(**{n: m for n, m in zip(names, v) if m is not ALL})
        for v in vectors
    ]
    cold = [stored_point_query(mapper, schema_id, v) for v in vectors]
    warm = [stored_point_query(mapper, schema_id, v) for v in vectors]
    ok = cold == expected and warm == expected and (
        structural_signature(reloaded) == structural_signature(data.cube)
    )
    run = {
        "dataset": dataset,
        "tuples": data.n_tuples,
        "scale": current_scale(),
        "schema": mapper.name,
        "queries": len(vectors),
        "answers_agree": ok,
    }
    epochs = _epoch_rows(mapper)  # first: its SELECT lands in the plan cache
    bundle = build_bundle(
        run,
        registry=registry,
        tracer=tracer,
        query_log=get_query_log(),
        operators=_operator_rows(mapper),
        storage=_storage_rows(mapper),
        plan_cache=_plan_cache_rows(mapper),
        epochs=epochs,
    )
    return from_bundle(bundle_to_json(bundle))


def _cmd_stats(args) -> int:
    from repro.telemetry import bundle_to_json, from_bundle, render_bundle, to_prometheus

    if args.bundle is not None:
        try:
            bundle = from_bundle(args.bundle.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"cannot load debug bundle {args.bundle}: {exc}", file=sys.stderr)
            return 2
    else:
        dataset = _resolve_dataset(args.dataset)
        if dataset is None:
            return 2
        bundle = _run_workload(dataset, args.schema)

    if args.out is not None:
        args.out.write_text(bundle_to_json(bundle) + "\n", encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.format == "json":
        print(bundle_to_json(bundle))
    elif args.format == "prom":
        print(to_prometheus(bundle["telemetry"]), end="")
    else:
        print(render_bundle(bundle))
    return 0 if bundle["run"]["answers_agree"] else 1


def _cmd_check(args) -> int:
    from repro.telemetry import enable_metrics

    dataset = _resolve_dataset(args.invariants)
    ok = False
    if dataset is not None:
        # The warm-query pass reads cache traffic straight from the live
        # registry, so the suite runs with metrics on.
        enable_metrics(True)
        ok = _check_invariants(dataset)
    print("check: OK" if ok else "check: FAILED")
    return 0 if ok else 1


@contextmanager
def _telemetry_restored():
    """Put the process-wide metrics, tracing and query-log switches back
    as they were on exit, and clear what the command recorded once it
    has rendered.  ``check``, ``ingest`` and ``stats`` switch them on
    for their run; an in-process caller of :func:`main` must inherit
    neither the switches nor the records."""
    from repro.telemetry import get_query_log, get_registry, get_tracer

    switches = (get_registry(), get_tracer(), get_query_log())
    was = [switch.enabled for switch in switches]
    try:
        yield
    finally:
        for switch, enabled in zip(switches, was):
            switch.enabled = enabled
            switch.reset()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "pipeline": _cmd_pipeline,
        "bench": _cmd_bench,
        "ingest": _cmd_ingest,
        "check": _cmd_check,
        "stats": _cmd_stats,
    }[args.command]
    with _telemetry_restored():  # restored once the command has rendered its output
        return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
