"""Bi-directional mapping: reconstruction time and fidelity per schema.

The contribution is explicitly *bi-directional* (§1): a DWARF stored in
any schema must be rebuildable by joining the stored records on their
unique ids.  This bench times the reverse direction (``load``) for all
four schemas on the Week cube and asserts exact fidelity.
"""

import pytest

from repro.bench.datasets import load_dataset
from repro.mapping.registry import MAPPER_FACTORIES, make_mapper

from benchmarks.conftest import report_table

SCHEMAS = list(MAPPER_FACTORIES)


@pytest.mark.parametrize("schema_name", SCHEMAS)
def test_reload_week_cube(benchmark, schema_name):
    bundle = load_dataset("Week")
    mapper = make_mapper(schema_name)
    schema_id = mapper.store(bundle.cube, probe_size=False)

    rebuilt = benchmark.pedantic(lambda: mapper.load(schema_id), rounds=1, iterations=1)

    source = bundle.cube
    assert rebuilt.total() == source.total()
    assert rebuilt.stats.node_count == source.stats.node_count
    assert rebuilt.stats.cell_count == source.stats.cell_count
    assert sorted(rebuilt.leaves()) == sorted(source.leaves())

    rows = report_table("Bi-directional mapping: reload time (ms, Week)", SCHEMAS)
    rows.setdefault("load ms", [None] * len(SCHEMAS))
    rows["load ms"][SCHEMAS.index(schema_name)] = round(benchmark.stats["mean"] * 1000)


def test_incremental_merge_vs_rebuild(benchmark):
    """The §7 future-work path: merging a delta cube beats a full rebuild."""
    from repro.dwarf.builder import DwarfBuilder
    from repro.dwarf.delta import merge_cubes
    from repro.smartcity.bikes import bikes_pipeline

    from benchmarks._timing import timed

    bundle = load_dataset("Month")
    documents = list(bundle.documents)
    split = max(1, len(documents) * 9 // 10)
    pipeline = bikes_pipeline()
    standing_facts = pipeline.extract(documents[:split])
    delta_facts = pipeline.extract(documents[split:])
    builder = DwarfBuilder(standing_facts.schema)
    standing = builder.build(standing_facts)

    def contest():
        merged, merge_seconds = timed(
            lambda: merge_cubes(standing, builder.build(delta_facts)),
            label="bench.merge",
        )
        rebuilt, rebuild_seconds = timed(
            lambda: builder.build(pipeline.extract(documents)),
            label="bench.rebuild",
        )
        return merged, rebuilt, merge_seconds, rebuild_seconds

    merged, rebuilt, merge_seconds, rebuild_seconds = benchmark.pedantic(
        contest, rounds=1, iterations=1
    )
    assert merged.total() == rebuilt.total()

    rows = report_table(
        "Incremental update: 10% delta merge vs full rebuild (Month)",
        ["merge ms", "rebuild ms"],
    )
    rows["measured"] = [round(merge_seconds * 1000), round(rebuild_seconds * 1000)]
