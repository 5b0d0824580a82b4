"""Property-based delta maintenance: merge == rebuild, in any order.

The algebra the append path rests on (docs/incremental_maintenance.md):
folding delta cubes into a base with the multi-way SuffixCoalesce merge
must be structurally identical to one cold rebuild over the union of
every input's facts, regardless of how the facts were partitioned, the
order the deltas fold in, or whether they fold all at once or one at a
time.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.delta_check import delta_check
from repro.analysis.dwarf_check import dwarf_check, structural_signature
from repro.core.errors import SchemaError
from repro.core.schema import CubeSchema
from repro.dwarf.builder import DwarfBuilder
from repro.dwarf.delta import DeltaDwarfBuilder, merge_cubes

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from([1, 2, 3, 4]),
        st.sampled_from(["x", "y", "z", "w"]),
        st.integers(min_value=-100, max_value=100),
    ),
    min_size=1,
    max_size=30,
)

# How to split the row list into base + deltas: fractional cut points.
cuts_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=3
)


def _partition(rows, cuts):
    bounds = sorted({int(round(cut * len(rows))) for cut in cuts})
    parts, start = [], 0
    for bound in bounds + [len(rows)]:
        parts.append(rows[start:bound])
        start = bound
    return [part for part in parts if part] or [rows]


def _schema():
    return CubeSchema("delta-prop", ["d1", "d2", "d3"])


@given(rows=rows_strategy, cuts=cuts_strategy)
@settings(max_examples=30, deadline=None)
def test_merge_equals_rebuild_over_union(rows, cuts):
    schema = _schema()
    parts = _partition(rows, cuts)
    builder = DeltaDwarfBuilder(schema)
    cubes = [builder.build_delta(part) for part in parts]
    merged = builder.merge(cubes[0], *cubes[1:])
    rebuild = DwarfBuilder(schema).build(rows)
    assert structural_signature(merged) == structural_signature(rebuild)
    assert merged.n_source_tuples == rebuild.n_source_tuples
    assert dwarf_check(merged).ok


@given(rows=rows_strategy, cuts=cuts_strategy)
@settings(max_examples=30, deadline=None)
def test_merge_is_order_insensitive_and_associative(rows, cuts):
    schema = _schema()
    parts = _partition(rows, cuts)
    builder = DeltaDwarfBuilder(schema)
    cubes = [builder.build_delta(part) for part in parts]
    base, deltas = cubes[0], cubes[1:]
    expected = structural_signature(builder.merge(base, *deltas))

    reversed_merge = DeltaDwarfBuilder(schema).merge(base, *reversed(deltas))
    assert structural_signature(reversed_merge) == expected

    folded = base
    left_fold = DeltaDwarfBuilder(schema)
    for delta in deltas:
        folded = left_fold.merge(folded, delta)
    assert structural_signature(folded) == expected


@given(rows=rows_strategy, cuts=cuts_strategy)
@settings(max_examples=15, deadline=None)
def test_delta_check_rule_passes_on_random_partitions(rows, cuts):
    report = delta_check(_schema(), _partition(rows, cuts))
    assert report.ok, report.format_lines()


def test_merge_with_no_deltas_returns_base():
    schema = _schema()
    builder = DeltaDwarfBuilder(schema)
    base = builder.build_delta([("a", 1, "x", 5)])
    assert builder.merge(base) is base


def test_merge_rejects_schema_mismatch():
    builder = DeltaDwarfBuilder(_schema())
    base = builder.build_delta([("a", 1, "x", 5)])
    other = DwarfBuilder(CubeSchema("other", ["p", "q", "r"])).build(
        [("a", 1, "x", 5)]
    )
    with pytest.raises(SchemaError):
        builder.merge(base, other)


def test_persistent_memo_seeds_follow_up_merges():
    schema = _schema()
    builder = DeltaDwarfBuilder(schema)
    base = builder.build_delta([("a", 1, "x", 5), ("b", 2, "y", 7)])
    merged = builder.merge(base, builder.build_delta([("c", 3, "z", 1)]))
    seeded = builder.memo_size
    assert seeded > 0
    # A second fold reuses the surviving memo entries instead of starting
    # cold; resetting drops them.
    builder.merge(merged, builder.build_delta([("a", 4, "w", 2)]))
    builder.reset_memo()
    assert builder.memo_size == 0


def test_merge_cubes_convenience_matches_builder():
    schema = _schema()
    rows = [("a", 1, "x", 5), ("b", 2, "y", 7), ("c", 3, "z", 1)]
    builder = DeltaDwarfBuilder(schema)
    cubes = [builder.build_delta([row]) for row in rows]
    via_helper = merge_cubes(*cubes)
    rebuild = DwarfBuilder(schema).build(rows)
    assert structural_signature(via_helper) == structural_signature(rebuild)
