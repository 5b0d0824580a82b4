"""NaN dimension members: every NaN of a dimension is one member, one cell.

NaN is unequal to itself and hashes by identity.  A builder that
compared members with ``!=`` alone re-added the cell of a second fact
with the same NaN object (overwriting the first fact), and gave every
fresh NaN object (what parsing produces) a cell of its own, out of key
order and unreachable by a query.  The builder, the merge key union,
reload and query entry now all treat NaN as one member.
"""

import pytest

from repro.analysis.dwarf_check import dwarf_check, structural_signature
from repro.analysis.mapping_check import mapping_check
from repro.core.schema import CubeSchema
from repro.dwarf import ALL, DwarfBuilder, In, Member, merge_cubes, select
from repro.mapping.registry import MAPPER_FACTORIES
from repro.mapping.stored_query import stored_point_query

SHARED_NAN = float("nan")


def _nan_factory(kind):
    return (lambda: SHARED_NAN) if kind == "shared" else (lambda: float("nan"))


def _rows(nan):
    """NaN in the first and in the last dimension, with one duplicate
    dimension vector that ends in NaN (the leaf-fold path)."""
    return [
        (nan(), "a", 1.0, 1),
        (nan(), "b", nan(), 2),
        (nan(), "b", nan(), 16),
        (1.0, "a", nan(), 4),
        (1.0, "a", 2.0, 8),
    ]


def _schema():
    return CubeSchema("nan-members", ["x", "y", "z"])


def _assert_answers(cube):
    nan = float("nan")  # a query's NaN is never the cube's NaN object
    assert cube.total() == 31
    assert cube.value([nan, ALL, ALL]) == 19
    assert cube.value([nan, "b", nan]) == 18
    assert cube.value([1.0, ALL, nan]) == 4
    assert cube.value([ALL, ALL, nan]) == 22
    assert cube.value(x=nan, y="a") == 1
    assert len(cube.members("x")) == 2
    assert len(cube.members("z")) == 3


@pytest.mark.parametrize("kind", ["shared", "fresh"])
def test_nan_members_fold_into_one_cell(kind):
    cube = DwarfBuilder(_schema()).build(_rows(_nan_factory(kind)))
    report = dwarf_check(cube)
    assert report.ok, "\n".join(report.format_lines())
    _assert_answers(cube)
    assert sorted(v for _, v in select(cube, x=Member(float("nan")))) == [19]
    assert [v for _, v in select(cube, z=In([float("nan")]))] == [22]


@pytest.mark.parametrize("kind", ["shared", "fresh"])
def test_merge_unions_nan_members(kind):
    rows = _rows(_nan_factory(kind))
    builder = DwarfBuilder(_schema())
    merged = merge_cubes(*(builder.build([row]) for row in rows))
    rebuild = builder.build(rows)
    assert structural_signature(merged) == structural_signature(rebuild)
    assert dwarf_check(merged).ok
    _assert_answers(merged)


@pytest.mark.parametrize("name", list(MAPPER_FACTORIES))
def test_nan_members_round_trip_every_mapper(name):
    cube = DwarfBuilder(_schema()).build(_rows(_nan_factory("fresh")))
    mapper = MAPPER_FACTORIES[name]()
    mapper.install()
    report = mapping_check(mapper, cube)
    assert report.ok, "\n".join(report.format_lines())

    schema_id = mapper.store(cube, probe_size=False)
    loaded = mapper.load(schema_id)
    assert structural_signature(loaded) == structural_signature(cube)
    _assert_answers(loaded)
    assert stored_point_query(mapper, schema_id, [float("nan"), ALL, ALL]) == 19

    # A reloaded base merges with a freshly built delta as one NaN member.
    delta = DwarfBuilder(_schema()).build([(float("nan"), "b", float("nan"), 100)])
    assert merge_cubes(loaded, delta).value([float("nan"), "b", ALL]) == 118
