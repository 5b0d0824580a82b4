"""The five workloads and the lifecycle every one of them runs.

A workload is one configuration of the same lifecycle — feed → ETL →
DWARF → mapper → engine, reload, point queries, scans — so that every
end-to-end metric exists on every workload; what sets them apart is the
engine, the cache budget against the working set, what else lives in the
store and batch against streaming ingest.  ``README.md`` has the reason
for each.
"""

from __future__ import annotations

import gc
import os
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.dwarf.delta import DeltaDwarfBuilder
from repro.dwarf.parallel import ParallelDwarfBuilder
from repro.dwarf.query import Each
from repro.etl.stream import FeedTailer
from repro.mapping.base import rebuild_cube, transform_cube
from repro.mapping.incremental import CubeMaintainer
from repro.mapping.registry import make_mapper
from repro.mapping.stored_query import stored_point_query, stored_select
from repro.smartcity.bikes import bikes_pipeline

from benchmarks.e2e._timing import (
    SpanRecorder,
    median,
    now,
    tail_percentile,
)
from benchmarks.e2e.inputs import FeedShape, make_documents, make_vectors
from benchmarks.e2e.oracle import Oracle, Tally

#: Share of ``--seconds`` spent on write cycles; the rest is read passes.
WRITE_SHARE = 0.7
#: Calibration kernel time spent after a repetition, as a share of it
#: (set-up is short and calibrated on its own, so it gets more).
CALIBRATION_SHARE = 0.08
SETUP_CALIBRATION_SHARE = 0.3
#: What one call of the calibration kernel takes on this class of
#: machine when nothing else disturbs it.
NOMINAL_KERNEL_S = 0.006
SETUP_REPS = 3
MIN_ROUNDS = 2
MIN_PASSES_PER_ROUND = 2
#: Point queries asked after every append and merge of a streaming run.
QUERIES_PER_CHECKPOINT = 60
N_VECTORS = 600

#: Week density (84 snapshots a day) and Month density (36) over 4 days
#: at 12 of Dublin's ~100 stations: a write cycle takes about a second,
#: so a run holds enough of them for a median to mean something.
WEEK = FeedShape(stations=12, days=4, snapshots_per_day=84)
MONTH = FeedShape(stations=12, days=4, snapshots_per_day=36)
DAY = FeedShape(stations=12, days=1, snapshots_per_day=72)
SMOKE = FeedShape(stations=4, days=2, snapshots_per_day=12)


class WorkloadSpec(NamedTuple):
    name: str
    why: str
    shape: FeedShape
    schema: str = "NoSQL-DWARF"
    stream: bool = False
    #: (block, row) cache budgets in bytes; None = the shipped defaults.
    cache_bytes: Optional[Tuple[int, int]] = None
    #: A second cube stored first, so ``schema_id = ?`` has blocks to refute.
    coresident: Optional[FeedShape] = None
    points_per_pass: int = 300
    scan_reps: int = 2
    #: Streaming only: micro-batches per feed and deltas per merge.
    batches: int = 8
    merge_every: int = 4


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "feed_to_nosql",
        "Week-shaped feed into NoSQL-DWARF, caches fit: the paper's headline "
        "path, nosqldb insert and flush do most of the work and sqldb none",
        WEEK,
    ),
    WorkloadSpec(
        "feed_to_sql",
        "the same feed into MySQL-DWARF: an etl, dwarf or transform change "
        "moves both feed_to workloads, an engine change only one",
        WEEK, schema="MySQL-DWARF",
    ),
    WorkloadSpec(
        "point_reads",
        "Month-shaped feed read through a 64 KiB block cache and no row "
        "cache (working set far larger): the block cache thrashes and "
        "SSTable decode does the read work",
        MONTH, cache_bytes=(65536, 0), points_per_pass=200, scan_reps=1,
    ),
    WorkloadSpec(
        "scan_aggregate",
        "the same Month-shaped feed with default caches beside a co-resident "
        "Day cube: scans and aggregates dominate the reads and pushed "
        "schema_id predicates have blocks to skip",
        MONTH, coresident=DAY, points_per_pass=100, scan_reps=6,
    ),
    WorkloadSpec(
        "stream_ingest_query",
        "the Week-shaped feed tailed in micro-batches with merges and point "
        "queries in between: a read gain bought with costlier writes or "
        "invalidation shows here",
        WEEK, stream=True,
    ),
)

WORKLOADS_BY_NAME: Dict[str, WorkloadSpec] = {spec.name: spec for spec in WORKLOADS}


def smoke_spec(spec: WorkloadSpec) -> WorkloadSpec:
    """The same workload at a size that finishes in a second or two."""
    return spec._replace(
        shape=SMOKE,
        coresident=SMOKE._replace(days=1) if spec.coresident else None,
        points_per_pass=40, batches=4, merge_every=2,
    )


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
class Inputs(NamedTuple):
    documents: list
    coresident: Optional[list]
    oracle: Oracle
    vectors: List[List]
    batch_docs: int


def make_inputs(spec: WorkloadSpec, seed: int) -> Inputs:
    documents = list(make_documents(spec.shape, seed))
    batch_docs = -(-len(documents) // spec.batches)
    prefix_ends = (
        range(batch_docs, len(documents), batch_docs) if spec.stream else ()
    )
    oracle = Oracle(documents, prefix_ends)
    coresident = (
        list(make_documents(spec.coresident, seed + 1)) if spec.coresident else None
    )
    vectors = make_vectors(oracle.cube, seed, N_VECTORS)
    return Inputs(documents, coresident, oracle, vectors, batch_docs)


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
class Statement(NamedTuple):
    name: str
    text: str
    params: Callable[[int, int], tuple]     # (schema_id, threshold) -> params


CQL_STATEMENTS = (
    Statement(
        "cql.count",
        "SELECT COUNT(*) FROM dwarf_cell WHERE schema_id = ? ALLOW FILTERING",
        lambda sid, thr: (sid,),
    ),
    Statement(
        "cql.leaf_rows",
        "SELECT id, key, measure FROM dwarf_cell "
        "WHERE schema_id = ? AND leaf = true ALLOW FILTERING",
        lambda sid, thr: (sid,),
    ),
    Statement(
        "cql.count_above",
        "SELECT COUNT(*) FROM dwarf_cell "
        "WHERE schema_id = ? AND measure > ? ALLOW FILTERING",
        lambda sid, thr: (sid, thr),
    ),
)
SQL_STATEMENTS = (
    Statement("sql.count", "SELECT COUNT(*) FROM CELL", lambda sid, thr: ()),
    Statement(
        "sql.leaf_rows",
        "SELECT id, cell_key, measure FROM CELL WHERE leaf = 1",
        lambda sid, thr: (),
    ),
    Statement(
        "sql.group_by_leaf",
        "SELECT leaf, COUNT(*) FROM CELL GROUP BY leaf",
        lambda sid, thr: (),
    ),
    Statement(
        "sql.sum_above",
        "SELECT SUM(measure) FROM CELL WHERE leaf = 1 AND measure > ?",
        lambda sid, thr: (thr,),
    ),
)
#: The selective aggregate whose median latency is ``agg_query_p50_ms``.
AGG_STATEMENT = {"NoSQL-DWARF": "cql.count_above", "MySQL-DWARF": "sql.sum_above"}


def _is_nosql(spec: WorkloadSpec) -> bool:
    return spec.schema == "NoSQL-DWARF"


def _tables(mapper):
    return mapper.engine.keyspace(mapper.keyspace_name).tables


def _cache_totals(rec: SpanRecorder, mapper) -> Dict[str, float]:
    """Block/row cache and block-format counters summed over the keyspace."""
    out = dict.fromkeys(
        ("block_hits", "block_misses", "row_hits", "row_misses", "evictions",
         "invalidations", "used_bytes", "sstables", "columnar_blocks",
         "blocks_skipped", "dict_hit_ratio"), 0.0,
    )
    with rec.timed("harness.counts"):
        all_stats = [(table.name, table.stats()) for table in _tables(mapper)]
    for name, stats in all_stats:
        out["block_hits"] += stats.block_cache.hits
        out["block_misses"] += stats.block_cache.misses
        out["row_hits"] += stats.row_cache.hits
        out["row_misses"] += stats.row_cache.misses
        out["evictions"] += stats.block_cache.evictions + stats.row_cache.evictions
        out["invalidations"] += (
            stats.block_cache.invalidations + stats.row_cache.invalidations
        )
        out["used_bytes"] += stats.block_cache.used_bytes + stats.row_cache.used_bytes
        out["sstables"] += stats.sstables
        out["columnar_blocks"] += stats.columnar_blocks
        out["blocks_skipped"] += stats.blocks_skipped
        if name == "dwarf_cell":
            out["dict_hit_ratio"] = stats.dict_hit_ratio
    return out


def _flush(mapper) -> None:
    for table in _tables(mapper):
        table.flush()


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------
# the lifecycle
# ----------------------------------------------------------------------
class Run:
    """One run of one workload: set-up, write cycles, read passes, checks."""

    def __init__(self, spec: WorkloadSpec, seed: int, seconds: float,
                 trace: bool) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.rec = SpanRecorder(f"{spec.name}:{seed}", trace)
        self.tally = Tally()
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.cycle_walls: Dict[bool, List[float]] = {True: [], False: []}
        self.pass_walls: Dict[bool, List[float]] = {True: [], False: []}
        self.statement_rows: Dict[str, int] = {}
        #: The first write cycle's store: every read pass goes to it.
        self.mapper = None

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # ------------------------------------------------------------------
    def execute(self) -> None:
        """The whole run.  The collector is off throughout and runs only
        between repetitions (``SpanRecorder.collect``)."""
        gc.disable()
        try:
            self._execute()
        finally:
            gc.enable()
            gc.unfreeze()

    def _execute(self) -> None:
        rec, seconds = self.rec, self.seconds
        cycle = self.stream_cycle if self.spec.stream else self.batch_cycle
        with rec.timed("run") as root:
            for _ in range(SETUP_REPS):
                self.inputs = None
                rec.collect()
                with rec.timed("harness.setup") as setup:
                    self.inputs = make_inputs(self.spec, self.seed)
                self.sample("setup_s", setup.wall_s)
                self.samples.setdefault("setup_calibration_s", []).extend(
                    rec.calibrate(setup.wall_s * SETUP_CALIBRATION_SHARE)
                )
            # Inputs and oracle live to the end: keep them out of every
            # later collection.
            gc.freeze()
            # Rounds of one write cycle and then read passes for the read
            # share of that cycle's time, so every metric samples the whole
            # run and not one stretch of it.  The first cycle's store is
            # kept and takes all the reads.
            deadline = now() + seconds
            read_cap = seconds * (1.0 - WRITE_SHARE) / MIN_ROUNDS
            rounds = 0
            while rounds < MIN_ROUNDS or now() < deadline:
                traced = rec.trace and rounds % 2 == 0
                wrote = self._once(cycle, self.cycle_walls, traced)
                if rounds == 0:
                    self.prepare_reads()
                    self.read_pass(warm_up=True)
                budget = min(read_cap, wrote * (1.0 - WRITE_SHARE) / WRITE_SHARE)
                passes = 0
                while passes < MIN_PASSES_PER_ROUND or budget > 0.0:
                    budget -= self._once(self.read_pass, self.pass_walls, traced)
                    passes += 1
                rounds += 1
            if rec.trace:
                self.standalone()
                with rec.timed("harness.counts"):
                    self.after_reads()
        self.root = root

    def _once(self, body, walls: Dict[bool, List[float]], traced: bool) -> float:
        """One repetition of ``body`` on an emptied heap; returns its wall.

        A traced run records every other round with tracing off (under
        one span, so its time stays attributed): the ratio of the two
        medians is the tracing overhead.
        """
        rec = self.rec
        rec.collect()
        t0 = now()
        if rec.trace and not traced:
            with rec.timed("harness.untraced"):
                rec.trace = False
                try:
                    body()
                finally:
                    rec.trace = True
        else:
            body()
        wall = now() - t0
        walls[traced].append(wall)
        self.samples.setdefault("calibration_s", []).extend(
            rec.calibrate(wall * CALIBRATION_SHARE)
        )
        return wall

    # ------------------------------------------------------------------
    def new_mapper(self):
        """A fresh in-memory mapper; cache budgets are read at CREATE TABLE."""
        budgets = self.spec.cache_bytes
        if budgets is not None:
            os.environ["REPRO_BLOCK_CACHE_BYTES"] = str(budgets[0])
            os.environ["REPRO_ROW_CACHE_BYTES"] = str(budgets[1])
        try:
            return make_mapper(self.spec.schema)
        finally:
            if budgets is not None:
                del os.environ["REPRO_BLOCK_CACHE_BYTES"]
                del os.environ["REPRO_ROW_CACHE_BYTES"]

    # ------------------------------------------------------------------
    def batch_cycle(self) -> None:
        spec, rec, inputs = self.spec, self.rec, self.inputs
        oracle = inputs.oracle
        pipeline = bikes_pipeline()
        mapper = self.new_mapper()
        cells = oracle.n_cells
        if inputs.coresident is not None:
            with rec.timed("harness.coresident"):
                facts = pipeline.extract(inputs.coresident)
                other = ParallelDwarfBuilder(facts.schema).build(facts)
                mapper.store(other, probe_size=False)
                _flush(mapper)
                cells += other.stats.cell_count
        with rec.timed("etl.extract") as extract:
            facts = pipeline.extract(inputs.documents)
        with rec.timed("dwarf.build") as build:
            cube = ParallelDwarfBuilder(facts.schema).build(facts)
        with rec.timed("mapping.store") as store:
            schema_id = mapper.store(cube, probe_size=False)
        flush_s = 0.0
        if _is_nosql(spec):
            with rec.timed("nosqldb.flush") as flush:
                _flush(mapper)
            flush_s = flush.wall_s
        with rec.timed("mapping.probe_size") as probe:
            mapper.probe_size(schema_id)
        with rec.timed("mapping.load") as load:
            loaded = mapper.load(schema_id)
        with rec.timed("harness.verify"):
            self.tally.check(len(facts) == oracle.n_tuples, "extract dropped facts")
            oracle.check_cube(self.tally, cube, "built cube")
            oracle.check_cube(self.tally, loaded, "reloaded cube")
        construct_s = extract.wall_s + build.wall_s
        self.sample("construct_s", construct_s)
        self.sample("pipeline_s", construct_s + store.wall_s + flush_s + probe.wall_s)
        self.sample("reload_s", load.wall_s)
        self.sample("bytes_per_cell", mapper.size_bytes() / cells)
        if self.mapper is None:
            self.mapper, self.cube = mapper, cube
            self.logical_id = self.physical_id = schema_id

    # ------------------------------------------------------------------
    def stream_cycle(self) -> None:
        spec, rec, inputs = self.spec, self.rec, self.inputs
        oracle = inputs.oracle
        pipeline = bikes_pipeline()
        mapper = self.new_mapper()
        tailer = FeedTailer(inputs.documents, batch_size=inputs.batch_docs)
        asked: List[Tuple[int, List, List]] = []
        before = _cache_totals(rec, mapper) if rec.trace else None

        batch = tailer.poll()
        with rec.timed("mapping.open") as opened:
            with rec.timed("etl.extract"):
                facts = pipeline.extract(batch.documents)
            with rec.timed("dwarf.build"):
                base = ParallelDwarfBuilder(facts.schema).build(facts)
            maintainer = CubeMaintainer.open(mapper, base)
        ingest_s = opened.wall_s
        self.ask(maintainer, asked, "overlay", batch.end_offset)
        while True:
            batch = tailer.poll()
            if batch is None:
                break
            with rec.timed("mapping.append") as appended:
                with rec.timed("etl.extract"):
                    facts = pipeline.extract(batch.documents)
                maintainer.append(facts)
            ingest_s += appended.wall_s
            self.ask(maintainer, asked, "overlay", batch.end_offset)
            if maintainer.pending_deltas >= spec.merge_every or tailer.lag == 0:
                with rec.timed("mapping.merge") as merged:
                    maintainer.merge()
                ingest_s += merged.wall_s
                self.ask(maintainer, asked, "merged", batch.end_offset)
        with rec.timed("mapping.compact") as compacted:
            maintainer.compact()
        ingest_s += compacted.wall_s
        physical_id = maintainer.view().base_id
        with rec.timed("mapping.load") as load:
            loaded = mapper.load(physical_id)
        # The cold rebuild the merged cube must equal.
        with rec.timed("etl.extract") as extract:
            facts = pipeline.extract(inputs.documents)
        with rec.timed("dwarf.build") as build:
            cube = ParallelDwarfBuilder(facts.schema).build(facts)
        with rec.timed("harness.verify"):
            oracle.check_cube(self.tally, cube, "cold rebuild")
            oracle.check_cube(self.tally, loaded, "merged cube")
            n_documents = len(inputs.documents)
            for documents_seen, vectors, answers in asked:
                oracle.check_points(
                    self.tally, vectors, answers,
                    None if documents_seen == n_documents else documents_seen,
                )
        self.sample("construct_s", extract.wall_s + build.wall_s)
        self.sample("pipeline_s", ingest_s)
        self.sample("reload_s", load.wall_s)
        self.sample("bytes_per_cell", mapper.size_bytes() / oracle.n_cells)
        if before is not None:
            self.cache_delta(before, _cache_totals(rec, mapper), 1)
        if self.mapper is None:
            self.mapper, self.cube = mapper, cube
            self.logical_id, self.physical_id = maintainer.logical_id, physical_id

    # ------------------------------------------------------------------
    def ask(self, maintainer, asked: list, kind: str, documents_seen: int) -> None:
        """A checkpoint's point queries against the maintained cube."""
        vectors = self.inputs.vectors
        first = len(asked) * QUERIES_PER_CHECKPOINT % len(vectors)
        vectors = vectors[first:first + QUERIES_PER_CHECKPOINT]
        answers, latencies = self.point_pass(
            maintainer.mapper, maintainer.logical_id, vectors
        )
        asked.append((documents_seen, vectors, answers))
        self.samples.setdefault("point_s", []).extend(latencies)
        self.samples.setdefault(f"point_s.{kind}", []).extend(latencies)

    def point_pass(self, mapper, schema_id: int, vectors):
        """Ask ``vectors`` one after another, each timed on its own;
        returns the answers and the latencies."""
        answers = []
        latencies = []
        with self.rec.timed("mapping.point"):
            for vector in vectors:
                t0 = now()
                answer = stored_point_query(mapper, schema_id, vector)
                latencies.append(now() - t0)
                answers.append(answer)
        return answers, latencies

    def prepare_reads(self) -> None:
        spec, mapper = self.spec, self.mapper
        statements = CQL_STATEMENTS if _is_nosql(spec) else SQL_STATEMENTS
        with self.rec.timed("query.prepare"):
            self.prepared = [
                (statement, mapper.session.prepare(statement.text))
                for statement in statements
            ]
        with self.rec.timed("harness.counts"):
            # Rows a statement ranges over: its whole table.
            if _is_nosql(spec):
                cells = mapper.engine.keyspace(mapper.keyspace_name).table("dwarf_cell")
                self.table_rows = len(cells)
            else:
                self.table_rows = self.inputs.oracle.n_cells
        self.reads_before = None
        self.timed_passes = 0

    def read_pass(self, warm_up: bool = False) -> None:
        """Point queries, then every scan statement ``scan_reps`` times.

        The warm-up pass fills the caches and is checked like any other,
        but its timings are cold-start ones and are not kept.
        """
        spec, rec, inputs = self.spec, self.rec, self.inputs
        oracle, mapper = inputs.oracle, self.mapper
        session = mapper.session
        results: List[Tuple[str, list, float]] = []
        vectors = [] if spec.stream else inputs.vectors[:spec.points_per_pass]
        answers, latencies = [], []
        with rec.timed("harness.read_pass"):
            if vectors:
                answers, latencies = self.point_pass(mapper, self.logical_id, vectors)
            with rec.timed("query.scans"):
                for _ in range(spec.scan_reps):
                    for statement, prepared in self.prepared:
                        params = statement.params(self.physical_id, oracle.threshold)
                        with rec.timed("query.exec") as span:
                            rows = list(session.execute_prepared(prepared, params))
                        results.append((statement.name, rows, span.wall_s))
                    if _is_nosql(spec):
                        with rec.timed("query.exec") as span:
                            rows = list(stored_select(
                                mapper, self.logical_id, strategy="scan",
                                station=Each(), day=Each(),
                            ))
                        results.append(("stored_select.scan", rows, span.wall_s))
        with rec.timed("harness.verify"):
            oracle.check_points(self.tally, vectors, answers)
            for name, rows, _ in results:
                oracle.check_statement(self.tally, name, rows)
                self.statement_rows[name] = len(rows)
        if warm_up:
            # Streaming reads its cache counters around a write cycle.
            if rec.trace and _is_nosql(spec) and not spec.stream:
                self.reads_before = _cache_totals(rec, mapper)
            return
        self.timed_passes += 1
        self.samples.setdefault("point_s", []).extend(latencies)
        for name, _, wall_s in results:
            self.sample(f"exec_s.{name}", wall_s)
        scan_s = sum(wall_s for _, _, wall_s in results)
        self.sample("scan_rows_per_s", self.table_rows * len(results) / scan_s)

    # ------------------------------------------------------------------
    def cache_delta(self, before, after, passes: int) -> None:
        counts = self.counts
        delta = {key: after[key] - before[key] for key in after}
        counts["cache.block_hit_rate"] = _rate(delta["block_hits"], delta["block_misses"])
        counts["cache.row_hit_rate"] = _rate(delta["row_hits"], delta["row_misses"])
        counts["cache.evictions"] = delta["evictions"] / passes
        counts["cache.invalidations"] = delta["invalidations"] / passes
        counts["cache.used_bytes"] = after["used_bytes"]
        counts["nosqldb.blocks_skipped"] = delta["blocks_skipped"] / passes
        for key in ("sstables", "columnar_blocks", "dict_hit_ratio"):
            counts[f"nosqldb.{key}"] = after[key]

    def standalone(self) -> None:
        """Traced run only: re-run the inner steps the public calls hide,
        on the last cycle's inputs, so derived per-layer times exist."""
        rec, inputs, cube = self.rec, self.inputs, self.cube
        with rec.timed("mapping.transform"):
            flat = transform_cube(cube)
        with rec.timed("mapping.rebuild"):
            rebuild_cube(cube.schema, flat.nodes, flat.cells, flat.entry_node_id)
        with rec.timed("dwarf.value") as valued:
            for vector in inputs.vectors:
                cube.value(vector)
        self.counts["dwarf.value_us"] = valued.wall_s / len(inputs.vectors) * 1e6
        if self.spec.stream:
            pipeline = bikes_pipeline()
            builder = DeltaDwarfBuilder(cube.schema)
            step = inputs.batch_docs
            with rec.timed("etl.extract"):
                batches = [
                    pipeline.extract(inputs.documents[start:start + step])
                    for start in range(0, len(inputs.documents), step)
                ]
            deltas = []
            for facts in batches:
                with rec.timed("dwarf.delta_build"):
                    deltas.append(builder.build_delta(facts))
            with rec.timed("dwarf.fold"):
                builder.merge(deltas[0], *deltas[1:])

    def after_reads(self) -> None:
        """Traced run only: counts read at the layer boundaries."""
        mapper, oracle, counts = self.mapper, self.inputs.oracle, self.counts
        if self.reads_before is not None:
            self.cache_delta(
                self.reads_before, _cache_totals(self.rec, mapper), self.timed_passes
            )
        plan_cache = mapper.session.plan_cache.stats()
        counts["query.plan_cache_hit_rate"] = _rate(plan_cache.hits, plan_cache.misses)
        # One EXPLAIN ANALYZE per statement, outside every timed pass.
        examined = returned = 0
        for statement, _ in self.prepared:
            params = statement.params(self.physical_id, oracle.threshold)
            plan = list(mapper.session.execute("EXPLAIN ANALYZE " + statement.text, params))
            examined += sum(row["rows"] + row["rows_pruned"] for row in plan[:1])
            returned += self.statement_rows[statement.name]
        counts["query.rows_examined_per_row_returned"] = examined / max(1, returned)

    # ------------------------------------------------------------------
    def machine_speed(self, samples: str = "calibration_s") -> float:
        """Nominal over measured calibration-kernel time: below 1 when
        the machine ran slower than nominal during the run."""
        return NOMINAL_KERNEL_S / median(self.samples[samples])

    def end_to_end(self, peak_rss_mb: float) -> Dict[str, float]:
        """The end-to-end metrics, timings expressed at nominal machine
        speed (see README: the host's speed drifts by tens of percent
        for minutes, and every timing of a run drifts with it)."""
        samples, oracle = self.samples, self.inputs.oracle
        speed = self.machine_speed()

        def nominal_s(name: str) -> float:
            return median(samples[name]) * speed

        return {
            "setup_s": median(samples["setup_s"])
            * self.machine_speed("setup_calibration_s"),
            "peak_rss_mb": peak_rss_mb,
            "construct_tuples_per_s": oracle.n_tuples / nominal_s("construct_s"),
            "pipeline_tuples_per_s": oracle.n_tuples / nominal_s("pipeline_s"),
            "reload_cells_per_s": oracle.n_cells / nominal_s("reload_s"),
            "stored_bytes_per_cell": median(samples["bytes_per_cell"]),
            "point_p50_ms": nominal_s("point_s") * 1e3,
            "scan_rows_per_s": median(samples["scan_rows_per_s"]) / speed,
            "agg_query_p50_ms": nominal_s(
                f"exec_s.{AGG_STATEMENT[self.spec.schema]}"
            ) * 1e3,
        }

    def per_layer(self) -> Dict[str, float]:
        """Per-layer numbers of a traced run (medians per occurrence)."""
        rec, samples, oracle = self.rec, self.samples, self.inputs.oracle
        self_s, cpu_s, wall = (
            {name: median(values) for name, values in rec.by_name(attribute).items()}
            for attribute in ("self_s", "cpu_s", "wall_s")
        )
        engine = "nosqldb" if _is_nosql(self.spec) else "sqldb"
        other = "sqldb" if engine == "nosqldb" else "nosqldb"
        out = dict.fromkeys(
            ("cache.block_hit_rate", "cache.row_hit_rate", "cache.evictions",
             "cache.invalidations", "cache.used_bytes", "nosqldb.blocks_skipped",
             "nosqldb.sstables", "nosqldb.columnar_blocks", "nosqldb.dict_hit_ratio",
             "dwarf.value_us"), 0.0,
        )
        out.update(self.counts)
        for stem in (
            "etl.extract", "dwarf.build", "dwarf.delta_build", "dwarf.fold",
            "mapping.transform", "mapping.store", "mapping.probe_size",
            "mapping.load", "mapping.rebuild", "mapping.open", "mapping.append",
            "mapping.merge", "mapping.compact", "mapping.point", "nosqldb.flush",
            "query.prepare", "query.scans", "query.exec",
        ):
            out[f"{stem}_s"] = self_s.get(stem, 0.0)
            out[f"{stem}_cpu_s"] = cpu_s.get(stem, 0.0)
        # Derived: what the engine did inside the mapper's public call.
        out[f"{engine}.insert_s"] = max(
            0.0, wall.get("mapping.store", 0.0) - self_s.get("mapping.transform", 0.0)
        )
        out[f"{engine}.read_s"] = max(
            0.0, wall.get("mapping.load", 0.0) - self_s.get("mapping.rebuild", 0.0)
        )
        out[f"{other}.insert_s"] = out[f"{other}.read_s"] = 0.0
        out["etl.facts"] = oracle.n_tuples
        out["etl.bytes_in"] = sum(d.size_bytes for d in self.inputs.documents)
        out["dwarf.nodes"] = oracle.n_nodes
        out["dwarf.cells"] = oracle.n_cells
        out["dwarf.cells_per_tuple"] = oracle.n_cells / oracle.n_tuples
        out["sqldb.bytes_per_cell"] = (
            0.0 if _is_nosql(self.spec) else median(samples["bytes_per_cell"])
        )
        points = samples["point_s"]
        out["mapping.point_samples"] = len(points)
        out["mapping.point_tail_ms"] = tail_percentile(points)[1] * 1e3
        out["mapping.overlay_point_p50_ms"] = median(samples.get("point_s.overlay", ())) * 1e3
        out["mapping.merged_point_p50_ms"] = median(samples.get("point_s.merged", ())) * 1e3
        untraced = median(self.cycle_walls[False]) + median(self.pass_walls[False])
        traced = median(self.cycle_walls[True]) + median(self.pass_walls[True])
        out["telemetry.trace_overhead_ratio"] = traced / untraced
        out["telemetry.machine_speed"] = self.machine_speed()
        layers, unattributed = rec.layer_totals(self.root)
        for layer in ("etl", "dwarf", "mapping", "nosqldb", "sqldb", "query", "harness"):
            out[f"layer.{layer}_s"] = layers.get(layer, 0.0)
        out["unattributed_s"] = unattributed
        out["unattributed_share"] = unattributed / self.root.wall_s
        out["wall_s"] = self.root.wall_s
        return out
