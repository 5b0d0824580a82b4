"""Shared fixtures: small cubes, engines and bike-feed bundles; the
hypothesis profiles; the test-side row view over a table's batches."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.schema import CubeSchema, Dimension
from repro.core.tuples import TupleSet
from repro.dwarf.builder import DwarfBuilder

# Hypothesis budgets: tier-1 runs a state machine at the default
# profile's budget (a few seconds); CI's deep job passes
# ``--hypothesis-profile=deep``.
settings.register_profile("deep", max_examples=1000, stateful_step_count=100, deadline=None)


def scan_rows(table, pushed=None):
    """Every live row of an sqldb ``Table`` or a nosqldb
    ``ColumnFamily`` as dicts, read through ``scan_batches``."""
    return [row for batch in table.scan_batches(pushed) for row in batch.rows()]


#: The Fig. 1-style sample input used across the DWARF tests: three
#: dimensions (country, city, station) and an integer measure.
SAMPLE_ROWS = [
    ("France", "Paris", "Rue Cler", 7),
    ("Ireland", "Cork", "Patrick St", 2),
    ("Ireland", "Dublin", "Fenian St", 3),
    ("Ireland", "Dublin", "Portobello", 5),
]


@pytest.fixture
def sample_schema() -> CubeSchema:
    return CubeSchema(
        "bikes",
        [
            Dimension("country"),
            Dimension("city"),
            Dimension("station", dimension_table="Station"),
        ],
        measure="available_bikes",
    )


@pytest.fixture
def sample_facts(sample_schema) -> TupleSet:
    return TupleSet(sample_schema, SAMPLE_ROWS)


@pytest.fixture
def sample_cube(sample_facts):
    return DwarfBuilder(sample_facts.schema).build(sample_facts)


@pytest.fixture
def bike_bundle():
    """A small real bike-feed slice: documents, facts and cube."""
    from repro.dwarf.builder import build_cube
    from repro.smartcity.bikes import BikeFeedGenerator, bikes_pipeline

    documents = BikeFeedGenerator(n_stations=24).generate_documents(
        days=2, total_records=600
    )
    pipeline = bikes_pipeline()
    facts = pipeline.extract(documents)
    return documents, facts, build_cube(facts)


def brute_force_value(rows, coords):
    """Oracle: SUM over rows matching ``coords`` (None entries = ALL)."""
    total = None
    for row in rows:
        keys, measure = row[:-1], row[-1]
        if all(c is None or c == k for c, k in zip(coords, keys)):
            total = measure if total is None else total + measure
    return total
