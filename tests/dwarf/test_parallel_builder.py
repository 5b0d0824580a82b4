"""ParallelDwarfBuilder — structural identity with the serial builder.

The partitioned build must be indistinguishable from the serial scan:
same DAG topology (asserted through the transformation's node/cell
records, which encode the full reachable structure), same merge count,
same query answers.  Covered across thread and process pools, fallback
modes, and worker resolution.
"""

import os

import pytest

from repro.core.schema import CubeSchema
from repro.core.tuples import TupleSet
from repro.dwarf.builder import DwarfBuilder, build_cube
from repro.dwarf.cell import ALL
from repro.dwarf.parallel import (
    MIN_PARALLEL_TUPLES,
    ParallelDwarfBuilder,
    build_cube_parallel,
    resolve_workers,
)
from repro.mapping.base import transform_cube


def _schema(n_dims=3):
    return CubeSchema("par", [f"d{i}" for i in range(n_dims)])


def _rows(n=300, n_dims=3, card=5, dupes=True):
    """Deterministic rows with many duplicate dimension vectors."""
    rows = []
    for i in range(n):
        vector = tuple(f"m{(i * (d + 3)) % card}" for d in range(n_dims))
        rows.append(vector + (i % 11 - 5,))
        if dupes and i % 4 == 0:
            rows.append(vector + (1,))  # duplicate vector, folded measure
    return rows


def _assert_identical(serial, parallel):
    s, p = transform_cube(serial), transform_cube(parallel)
    assert s.nodes == p.nodes
    assert s.cells == p.cells
    assert serial.n_merges == parallel.n_merges
    assert serial.total() == parallel.total()


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_structure_identical_to_serial(mode):
    schema = _schema()
    rows = _rows()
    serial = build_cube(rows, schema)
    parallel = ParallelDwarfBuilder(
        schema, workers=3, mode=mode, min_parallel_tuples=2
    ).build(rows)
    _assert_identical(serial, parallel)


def test_structure_identical_high_dims_and_dupes():
    schema = _schema(5)
    rows = _rows(n=400, n_dims=5, card=3)
    serial = build_cube(rows, schema)
    parallel = ParallelDwarfBuilder(
        schema, workers=4, mode="thread", min_parallel_tuples=2
    ).build(rows)
    _assert_identical(serial, parallel)


def test_query_answers_match_serial():
    schema = _schema()
    rows = _rows(n=200)
    serial = build_cube(rows, schema)
    parallel = ParallelDwarfBuilder(
        schema, workers=2, mode="thread", min_parallel_tuples=2
    ).build(rows)
    members = serial.members("d0")
    for member in list(members) + [ALL]:
        assert parallel.value([member, ALL, ALL]) == serial.value([member, ALL, ALL])
    assert dict(parallel.leaves()) == dict(serial.leaves())


def test_empty_input_builds_empty_cube():
    cube = ParallelDwarfBuilder(_schema()).build([])
    assert cube.n_source_tuples == 0
    assert cube.total() is None or cube.total() == 0


def test_single_first_dimension_group_falls_back_to_serial():
    # Every row shares its first member, so there is exactly one partition
    # and the builder must route through the plain serial path.
    schema = _schema()
    rows = [("only", f"m{i % 5}", f"k{i % 3}", i) for i in range(100)]
    serial = build_cube(rows, schema)
    parallel = ParallelDwarfBuilder(
        schema, workers=4, mode="thread", min_parallel_tuples=2
    ).build(rows)
    _assert_identical(serial, parallel)


def test_small_inputs_use_serial_mode():
    builder = ParallelDwarfBuilder(_schema(), workers=4, mode="auto")
    assert builder._effective_mode(MIN_PARALLEL_TUPLES - 1) == "serial"


def test_workers_one_forces_serial():
    builder = ParallelDwarfBuilder(_schema(), workers=1, mode="auto")
    assert builder._effective_mode(1_000_000) == "serial"


def test_coalesce_off_routes_serial():
    builder = ParallelDwarfBuilder(_schema(), coalesce=False, workers=4)
    assert builder._effective_mode(1_000_000) == "serial"
    rows = _rows(n=50)
    assert builder.build(rows).total() == build_cube(rows, _schema(), coalesce=False).total()


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        ParallelDwarfBuilder(_schema(), mode="fibers")


def test_resolve_workers_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "7")
    assert resolve_workers() == 7
    assert resolve_workers(3) == 3  # explicit argument wins
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert resolve_workers() == 1  # floored at one worker
    monkeypatch.delenv("REPRO_WORKERS")
    assert resolve_workers() == (os.cpu_count() or 1)


@pytest.mark.parametrize("raw", ["two", "", "  ", "1.5"])
def test_malformed_workers_env_falls_back_to_cpu_count(monkeypatch, raw):
    monkeypatch.setenv("REPRO_WORKERS", raw)
    assert resolve_workers() == (os.cpu_count() or 1)
    assert resolve_workers(2) == 2  # an explicit argument never reads the env
    builder = ParallelDwarfBuilder(_schema())
    assert builder.workers == (os.cpu_count() or 1)
    rows = _rows(n=50)
    assert builder.build(rows).total() == build_cube(rows, _schema()).total()


def test_build_cube_parallel_convenience():
    schema = _schema()
    rows = _rows(n=150)
    facts = TupleSet(schema, rows)
    cube = build_cube_parallel(facts, workers=2, mode="thread")
    assert cube.total() == build_cube(rows, schema).total()
    with pytest.raises(Exception):
        build_cube_parallel(rows)  # plain iterable needs an explicit schema


def test_partition_boundaries_respect_first_dimension():
    schema = _schema()
    rows = sorted(_rows(n=300), key=lambda r: str(r[0]))
    builder = ParallelDwarfBuilder(schema, workers=3, min_parallel_tuples=2)
    ordered = TupleSet(schema, rows).sorted()
    partitions = builder._partition(ordered)
    assert sum(len(p) for p in partitions) == len(ordered)
    seen = set()
    for chunk in partitions:
        members = {fact.keys[0] for fact in chunk}
        assert not members & seen  # no first-dim member straddles chunks
        seen |= members


def test_pipeline_builds_through_parallel_builder():
    # The construction pipeline wires its workers argument through to the
    # parallel builder and still yields the serial cube exactly.
    from repro.core.pipeline import CubeConstructionPipeline

    schema = _schema()
    rows = _rows(n=120)

    class _StubMapping:
        pass

    class _StubETL:
        mapping = _StubMapping()
        mapping.schema = schema
        n_documents = 1
        n_records = len(rows)

        def extract(self, documents):
            return TupleSet(schema, rows)

    pipeline = CubeConstructionPipeline(_StubETL(), workers=2)
    assert pipeline.workers == 2
    cube = pipeline.build([object()])
    _assert_identical(build_cube(rows, schema), cube)
