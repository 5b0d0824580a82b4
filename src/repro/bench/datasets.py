"""The paper's evaluation datasets (Table 2) and scaling support.

Five periods of the bike feed: Day, Week, Month, TMonth (two months) and
SMonth (six months), with the paper's exact tuple counts.  Because the
full SMonth run (1.18 M tuples) takes minutes per schema in pure Python,
the harness scales tuple counts by ``REPRO_SCALE`` (default 1/16); set
``REPRO_SCALE=1.0`` to reproduce the full sizes.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, NamedTuple, Optional

from repro.dwarf.builder import DwarfBuilder
from repro.dwarf.cube import DwarfCube
from repro.etl.documents import DocumentBatch
from repro.smartcity.bikes import BikeFeedGenerator, bikes_pipeline

#: Scale applied to the paper's tuple counts (env ``REPRO_SCALE``).
DEFAULT_SCALE = 1.0 / 16.0


class DatasetSpec(NamedTuple):
    """One row of the paper's Table 2."""

    name: str
    days: int
    paper_tuples: int
    paper_size_mb: float


#: The paper's five datasets (Table 2).
DATASETS: List[DatasetSpec] = [
    DatasetSpec("Day", 1, 7_358, 2.1),
    DatasetSpec("Week", 7, 60_102, 17.1),
    DatasetSpec("Month", 30, 118_934, 54.1),
    DatasetSpec("TMonth", 61, 396_756, 113.0),
    DatasetSpec("SMonth", 183, 1_181_344, 338.0),
]

DATASETS_BY_NAME: Dict[str, DatasetSpec] = {spec.name: spec for spec in DATASETS}


def current_scale() -> float:
    """The active tuple-count scale from ``REPRO_SCALE``."""
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return DEFAULT_SCALE
    scale = float(raw)
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"REPRO_SCALE must be in (0, 1], got {scale}")
    return scale


def scaled_tuples(spec: DatasetSpec, scale: Optional[float] = None) -> int:
    scale = current_scale() if scale is None else scale
    return max(1, round(spec.paper_tuples * scale))


def scaled_days(spec: DatasetSpec, scale: Optional[float] = None) -> int:
    """Days covered by the scaled dataset.

    The period shrinks with the tuple count so the *density* (readings
    per day) — which controls how much prefix sharing the DWARF gets —
    stays close to the paper's; scaling tuples alone would produce a
    sparse feed whose cube is several times larger per tuple.
    """
    scale = current_scale() if scale is None else scale
    return max(1, math.ceil(spec.days * scale))


class DatasetBundle(NamedTuple):
    """Everything a benchmark needs for one dataset."""

    spec: DatasetSpec
    n_tuples: int
    documents: DocumentBatch
    cube: DwarfCube


_CACHE: Dict[tuple, DatasetBundle] = {}


def load_dataset(
    name: str,
    scale: Optional[float] = None,
    generator: Optional[BikeFeedGenerator] = None,
) -> DatasetBundle:
    """Generate documents, extract facts and build the cube for one period.

    Results are cached per (name, scale) so every schema's Table 4/5
    cell stores the same cube.
    """
    spec = DATASETS_BY_NAME[name]
    scale = current_scale() if scale is None else scale
    cache_key = (name, round(scale, 9))
    cached = _CACHE.get(cache_key)
    if cached is not None:
        return cached

    n_tuples = scaled_tuples(spec, scale)
    feed = generator or BikeFeedGenerator()
    documents = feed.generate_documents(
        days=scaled_days(spec, scale), total_records=n_tuples
    ).batch()
    pipeline = bikes_pipeline()
    facts = pipeline.extract(documents)
    cube = DwarfBuilder(facts.schema).build(facts)
    bundle = DatasetBundle(spec=spec, n_tuples=len(facts), documents=documents, cube=cube)
    _CACHE[cache_key] = bundle
    return bundle


def clear_cache() -> None:
    _CACHE.clear()
