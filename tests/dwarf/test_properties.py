"""Property-based DWARF invariants (hypothesis).

The central one: every point query against the cube — with any mix of
fixed members and ALL — equals a brute-force aggregation over the input
rows.  If this holds for random inputs, prefix/suffix coalescing never
corrupted an aggregate.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.schema import CubeSchema
from repro.dwarf.builder import DwarfBuilder, build_cube
from repro.dwarf.delta import merge_cubes
from repro.dwarf.cell import ALL

from tests.conftest import brute_force_value

_MEMBERS = ["a", "b", "c", "d"]

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(_MEMBERS),
        st.sampled_from(_MEMBERS),
        st.sampled_from(_MEMBERS),
        st.integers(min_value=-50, max_value=50),
    ),
    min_size=1,
    max_size=40,
)

coords_strategy = st.tuples(
    st.sampled_from(_MEMBERS + [None]),
    st.sampled_from(_MEMBERS + [None]),
    st.sampled_from(_MEMBERS + [None]),
)


def _schema():
    return CubeSchema("prop", ["x", "y", "z"])


@given(rows=rows_strategy, coords=coords_strategy)
@settings(max_examples=150, deadline=None)
def test_any_point_query_matches_brute_force(rows, coords):
    cube = build_cube(rows, _schema())
    expected = brute_force_value(rows, coords)
    vector = [ALL if c is None else c for c in coords]
    assert cube.value(vector) == expected


@given(rows=rows_strategy)
@settings(max_examples=80, deadline=None)
def test_total_is_sum_of_all_measures(rows):
    cube = build_cube(rows, _schema())
    assert cube.total() == sum(r[-1] for r in rows)


@given(rows=rows_strategy)
@settings(max_examples=60, deadline=None)
def test_leaves_match_grouped_input(rows):
    cube = build_cube(rows, _schema())
    grouped = {}
    for row in rows:
        grouped[row[:-1]] = grouped.get(row[:-1], 0) + row[-1]
    assert dict(cube.leaves()) == grouped


@given(rows=rows_strategy, coords=coords_strategy)
@settings(max_examples=60, deadline=None)
def test_coalescing_never_changes_answers(rows, coords):
    schema = _schema()
    vector = [ALL if c is None else c for c in coords]
    on = DwarfBuilder(schema, coalesce=True).build(rows)
    off = DwarfBuilder(schema, coalesce=False).build(rows)
    assert on.value(vector) == off.value(vector)


@given(rows=rows_strategy, split=st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_merge_of_split_equals_whole(rows, split):
    schema = _schema()
    split = min(split, len(rows))
    if split == 0 or split == len(rows):
        return
    merged = merge_cubes(
        build_cube(rows[:split], schema), build_cube(rows[split:], schema)
    )
    whole = build_cube(rows, schema)
    assert sorted(merged.leaves()) == sorted(whole.leaves())
    assert merged.total() == whole.total()


@given(rows=rows_strategy)
@settings(max_examples=40, deadline=None)
def test_every_node_closed_and_counts_consistent(rows):
    cube = build_cube(rows, _schema())
    from repro.dwarf.traversal import iter_nodes

    nodes = list(iter_nodes(cube.root))
    assert all(n.is_closed for n in nodes)
    assert cube.stats.node_count == len(nodes)
    assert cube.stats.all_cell_count == len(nodes)
