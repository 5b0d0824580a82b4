"""Experiment runner: measures one (dataset, schema) cell of Tables 4/5."""

from __future__ import annotations

import gc
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.bench.datasets import DatasetBundle, load_dataset
from repro.mapping.registry import MAPPER_FACTORIES, make_mapper
from repro.telemetry import get_tracer, wall_clock

#: Paper values for Table 4 (MB used to store a DWARF cube).
PAPER_TABLE4_MB: Dict[str, Sequence[float]] = {
    "MySQL-DWARF": (2, 20, 80, 169, 424),
    "MySQL-Min": (0.9, 8, 33, 70, 178),
    "NoSQL-DWARF": (0.9, 9, 35, 73, 182),
    "NoSQL-Min": (0.9, 11, 45, 96, 243),
}

#: Paper values for Table 5 (milliseconds to insert a DWARF cube).
PAPER_TABLE5_MS: Dict[str, Sequence[int]] = {
    "MySQL-DWARF": (1768, 12501, 47247, 100466, 255098),
    "MySQL-Min": (1107, 5955, 22243, 47936, 121221),
    "NoSQL-DWARF": (927, 4368, 15955, 34203, 89257),
    "NoSQL-Min": (5699, 57153, 222044, 484498, 1219887),
}

#: Dataset column order shared by Tables 2, 4 and 5.
DATASET_ORDER = ("Day", "Week", "Month", "TMonth", "SMonth")


class CellResult(NamedTuple):
    """One measured (schema, dataset) cell."""

    schema: str
    dataset: str
    n_tuples: int
    insert_ms: float
    size_mb: float
    node_count: int
    cell_count: int
    size_bytes: int = 0


def run_cell(schema_name: str, dataset_name: str, mapper=None) -> CellResult:
    """Store one dataset's cube under one schema; measure time and size.

    The timed region covers the transformation traversal plus the bulk
    insert (the paper's "time taken to insert a DWARF cube"); the size
    probe runs after the clock stops, like the paper's separate
    ``size_as_mb`` update.  The garbage collector is paused over the
    timed region, as the pytest benchmarks pause it: a full collection
    scans every cached dataset, and whichever cell it happens to land in
    pays tens of milliseconds that are harness noise, not insert cost.
    """
    bundle: DatasetBundle = load_dataset(dataset_name)
    owns_mapper = mapper is None
    if owns_mapper:
        mapper = make_mapper(schema_name)
    mapper.reset()

    with get_tracer().span("bench.cell", schema=schema_name, dataset=dataset_name):
        gc.collect()
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = wall_clock()
            schema_id = mapper.store(bundle.cube, probe_size=False)
            insert_ms = (wall_clock() - started) * 1000.0
        finally:
            if collecting:
                gc.enable()

    mapper.probe_size(schema_id)
    # Report from the stored registry row: the exact byte count avoids the
    # paper schema's integer-MB floor, which reads 0 for the small datasets.
    info = mapper.info(schema_id)
    size_bytes = info.size_as_bytes
    if size_bytes is None:
        size_bytes = mapper.size_bytes()
    size_mb = size_bytes / (1024.0 * 1024.0)
    stats = bundle.cube.stats
    return CellResult(
        schema=schema_name,
        dataset=dataset_name,
        n_tuples=bundle.n_tuples,
        insert_ms=insert_ms,
        size_mb=size_mb,
        node_count=stats.node_count,
        cell_count=stats.cell_count,
        size_bytes=size_bytes,
    )


def run_matrix(
    datasets: Optional[Sequence[str]] = None,
    schemas: Optional[Sequence[str]] = None,
) -> List[CellResult]:
    """Measure every (schema, dataset) pair, reusing one mapper per schema."""
    datasets = tuple(datasets or DATASET_ORDER)
    schemas = tuple(schemas or MAPPER_FACTORIES)
    results: List[CellResult] = []
    for schema_name in schemas:
        mapper = make_mapper(schema_name)
        for dataset_name in datasets:
            results.append(run_cell(schema_name, dataset_name, mapper=mapper))
    return results
