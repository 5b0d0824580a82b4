"""Benchmark harness: the paper's datasets, runner and reporting."""

from repro.bench.datasets import (
    DATASETS,
    DATASETS_BY_NAME,
    DatasetBundle,
    DatasetSpec,
    clear_cache,
    current_scale,
    load_dataset,
    scaled_tuples,
)
from repro.bench.reporting import format_table
from repro.bench.runner import (
    DATASET_ORDER,
    PAPER_TABLE4_MB,
    PAPER_TABLE5_MS,
    CellResult,
    run_cell,
    run_matrix,
)

__all__ = [
    "CellResult",
    "DATASETS",
    "DATASETS_BY_NAME",
    "DATASET_ORDER",
    "DatasetBundle",
    "DatasetSpec",
    "PAPER_TABLE4_MB",
    "PAPER_TABLE5_MS",
    "clear_cache",
    "current_scale",
    "format_table",
    "load_dataset",
    "run_cell",
    "run_matrix",
    "scaled_tuples",
]
