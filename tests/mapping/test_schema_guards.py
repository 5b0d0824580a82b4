"""Guards for the four storage schemas: stored bytes, EXPLAIN rows, answers.

* **Golden digests** — each mapper stores the Fig. 1 sample cube and a
  seeded bike cube, flushes (NoSQL) or checkpoints (SQL), and the
  SHA-256 over every table's sorted rows plus ``size_bytes()`` must
  equal the recorded constants: what a schema writes is pinned to the
  byte count and the row.
* **Pinned EXPLAIN** — ``explain_strategy(mapper)`` renders exactly the
  recorded step names and plan rows.
* **Differential** — random 2-3-dimension cubes with str/int/float/bool
  members survive ``load(store(c))`` structurally; the stored point
  walk answers ``cube.value`` on every member/ALL vector, and
  ``stored_select`` (walk, and scan where the cells carry their parent)
  answers :func:`repro.dwarf.query.select` on random per-dimension
  constraints, both on a plain stored cube and through a
  :class:`CubeMaintainer` with one live delta overlay (against a cold
  rebuild); ``stored_cell_count`` counts the stored cells.
"""

from __future__ import annotations

import hashlib
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.dwarf_check import structural_signature
from repro.core.schema import CubeSchema
from repro.dwarf.builder import DwarfBuilder, build_cube
from repro.dwarf.cell import ALL
from repro.dwarf.query import All, Each, In, Member, Range, select
from repro.mapping.incremental import CubeMaintainer
from repro.mapping.registry import MAPPER_FACTORIES
from repro.mapping.stored_query import (
    explain_strategy,
    stored_cell_count,
    stored_point_query,
    stored_select,
)
from tests.conftest import scan_rows

MAPPER_NAMES = list(MAPPER_FACTORIES)


def _fresh(name):
    mapper = MAPPER_FACTORIES[name]()
    mapper.install()
    return mapper


def _bike_cube():
    from repro.smartcity.bikes import BikeFeedGenerator, bikes_pipeline

    documents = BikeFeedGenerator(n_stations=12).generate_documents(
        days=1, total_records=300
    )
    return build_cube(bikes_pipeline().extract(documents))


def _canonical(value):
    if isinstance(value, (set, frozenset, list, tuple)):
        return sorted(value)
    return value


def _tables(mapper):
    return mapper.session.dialect.tables(mapper.engine, mapper.session.namespace)


def _storage_digest(mapper) -> str:
    """SHA-256 over every table's rows, tables by name, rows sorted."""
    digest = hashlib.sha256()
    for table in sorted(_tables(mapper), key=lambda t: t.name):
        rows = sorted(
            repr(sorted((k, _canonical(v)) for k, v in row.items()))
            for row in scan_rows(table)
        )
        digest.update(table.name.encode())
        for row in rows:
            digest.update(row.encode())
    return digest.hexdigest()


def _settle(mapper) -> None:
    """Flush every memtable (NoSQL) or checkpoint the redo log (SQL)."""
    if mapper.session.dialect.label == "cql":
        for table in _tables(mapper):
            table.flush()
    else:
        mapper.engine.database(mapper.session.namespace).checkpoint()


#: (digest, size_bytes) per (schema, cube), recorded before the four
#: schemas became declarations.
GOLDEN = {
    ("MySQL-DWARF", "sample"): (
        "94864e578518f52167efe6820b377dd483639956faa3aa7e652c2c7633bd3dc1", 3573),
    ("MySQL-DWARF", "bikes"): (
        "cf495ca66de0a5b3386ea09dbd834b475f77f34929c62be85aee5012e7ab29f9", 422166),
    ("MySQL-Min", "sample"): (
        "b19fca7793623428960965cafbea3ebe24906f96a8b95fea54542ed2a3b2c515", 1830),
    ("MySQL-Min", "bikes"): (
        "6b0b1f9d936bcecb4c305510d49c4fb281e673d123d3c01604cbcd8112eca792", 175932),
    ("NoSQL-DWARF", "sample"): (
        "61fb94051e6b5d2b463aef7a1ef789a6e22803876f89b727d6f7d87d6b31ec3b", 1683),
    ("NoSQL-DWARF", "bikes"): (
        "ca6a03f35966f39633d6fac04d498ecdfe914eac5fe35a826d48bcaa971f3519", 72180),
    ("NoSQL-Min", "sample"): (
        "666c0096185d7a7f07c79b1bf3805be24c88209494415439d915d4cbcdf399ff", 1609),
    ("NoSQL-Min", "bikes"): (
        "0f6d1b9935a373504f5e663f574e29a2f1a6ce2d3118300a29171a860b77457c", 103242),
}


@pytest.mark.parametrize("cube_name", ["sample", "bikes"])
@pytest.mark.parametrize("name", MAPPER_NAMES)
def test_golden_storage_digest(name, cube_name, sample_cube):
    cube = sample_cube if cube_name == "sample" else _bike_cube()
    mapper = _fresh(name)
    mapper.store(cube)
    _settle(mapper)
    got = (_storage_digest(mapper), mapper.size_bytes())
    assert got == GOLDEN[(name, cube_name)]


def _cube_steps(table, cube):
    """The ``cube_scan`` and ``cube_count`` steps every schema ends with."""
    scan = ("FullScan", table, None, f"full scan, pushed={cube} = ?0")
    return [("cube_scan", [scan]), ("cube_count", [scan, ("Aggregate", None, None, "count(*)")])]


#: ``explain_strategy`` per schema: step -> ``(node, table, key, detail)``
#: per plan row, in step order.  Recorded before the four schemas became
#: declarations; since the one stored-query walk, the key match reads
#: ``IN ?1``, MySQL-Min's ``cells`` step is the kernel cube scan, and
#: every schema lists ``cube_scan`` and ``cube_count``.
PINNED_EXPLAIN = {
    "MySQL-DWARF": [
        ("children", [
            ("IndexScan", "NODE_CHILDREN", "node_id", "pk-prefix"),
            ("Project", None, None, "cell_id"),
        ]),
        ("cells", [
            ("MultiGet", "CELL", "id", "primary key, batched"),
            ("Filter", None, None, "cell_key IN ?1"),
        ]),
        ("pointer", [
            ("IndexScan", "CELL_CHILDREN", "cell_id", "pk-prefix"),
            ("Project", None, None, "node_id"),
        ]),
    ] + _cube_steps("CELL", "schema_id"),
    "MySQL-Min": [
        ("cells", [
            ("FullScan", "DWARF_CELL", None, "full scan, pushed=cubeid = ?0"),
        ]),
    ] + _cube_steps("DWARF_CELL", "cubeid"),
    "NoSQL-DWARF": [
        ("node", [
            ("PointLookup", "dwarf_node", "id", "primary key"),
            ("Project", None, None, "childrenIds"),
        ]),
        ("cells", [
            ("MultiGet", "dwarf_cell", "id", "primary key, batched"),
            ("Filter", None, None, "key IN ?1"),
        ]),
    ] + _cube_steps("dwarf_cell", "schema_id"),
    "NoSQL-Min": [
        ("entry", [
            ("FullScan", "dwarf_cell", None,
             "full scan, pushed=root = True AND cubeid = ?0"),
        ]),
        ("siblings", [
            ("IndexScan", "dwarf_cell", "parentNodeId",
             "secondary-index, pushed=name IN ?1"),
        ]),
    ] + _cube_steps("dwarf_cell", "cubeid"),
}


@pytest.mark.parametrize("name", MAPPER_NAMES)
def test_pinned_explain_strategy(name):
    expected = [
        (step, [
            {"step": n, "node": node, "table": table, "key": key, "detail": detail}
            for n, (node, table, key, detail) in enumerate(rows, start=1)
        ])
        for step, rows in PINNED_EXPLAIN[name]
    ]
    assert list(explain_strategy(_fresh(name)).items()) == expected


# ----------------------------------------------------------------------
# differential over random cubes
# ----------------------------------------------------------------------
_POOLS = {
    "str": st.sampled_from(["a", "b", "c"]),
    "int": st.integers(min_value=-3, max_value=3),
    "float": st.sampled_from([0.5, -2.25, 10.0]),
    "bool": st.booleans(),
}
#: A member of each kind that no drawn cube holds.
_ABSENT = {"str": "zz", "int": 99, "float": 7.5, "bool": None}


def _constraint(kind):
    """One dimension's constraint over members of ``kind``, present or not."""
    pool = _POOLS[kind]
    if _ABSENT[kind] is not None:
        pool = st.one_of(pool, st.just(_ABSENT[kind]))
    return st.one_of(
        st.just(All()), st.just(Each()), pool.map(Member),
        st.lists(pool, max_size=3).map(In),
        st.tuples(pool, pool).map(lambda bounds: Range(min(bounds), max(bounds))),
    )


@st.composite
def _cubes(draw):
    n_dims = draw(st.integers(min_value=2, max_value=3))
    # One member type per dimension keeps the in-memory sort total.
    kinds = [draw(st.sampled_from(["str", "int", "float", "bool"])) for _ in range(n_dims)]
    row = st.tuples(
        *[_POOLS[kind] for kind in kinds],
        st.integers(min_value=-50, max_value=50),
    )
    rows = draw(st.lists(row, min_size=1, max_size=12))
    delta = draw(st.lists(row, min_size=1, max_size=4))
    schema = CubeSchema("diff", [f"d{i}" for i in range(n_dims)])
    specs = draw(st.lists(
        st.tuples(*[_constraint(kind) for kind in kinds]).map(
            lambda constraints: dict(zip(schema.dimension_names, constraints))
        ),
        min_size=1, max_size=3,
    ))
    return schema, rows, delta, specs


def _vectors(cube):
    axes = [
        list(cube.members(name)) + [ALL] for name in cube.schema.dimension_names
    ]
    return list(itertools.product(*axes))


@pytest.mark.parametrize("name", MAPPER_NAMES)
@given(case=_cubes())
@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_differential_roundtrip_and_point_walk(name, case):
    schema, rows, delta, specs = case
    cube = build_cube(rows, schema)

    mapper = _fresh(name)
    schema_id = mapper.store(cube, probe_size=False)
    assert structural_signature(mapper.load(schema_id)) == structural_signature(cube)
    for vector in _vectors(cube):
        assert stored_point_query(mapper, schema_id, vector) == cube.value(vector)
    _check_selects(mapper, schema_id, cube, specs)
    assert stored_cell_count(mapper, schema_id) == cube.stats.cell_count

    maintained = _fresh(name)
    maintainer = CubeMaintainer.open(maintained, DwarfBuilder(schema).build(rows))
    maintainer.append(delta)
    reference = DwarfBuilder(schema).build(rows + delta)
    view = maintainer.view()
    assert len(view.delta_ids) == 1
    assert structural_signature(maintained.load(view.base_id)) == (
        structural_signature(cube)
    )
    for vector in _vectors(reference):
        assert stored_point_query(
            maintained, maintainer.logical_id, vector
        ) == reference.value(vector)
    _check_selects(maintained, maintainer.logical_id, reference, specs)
    # The overlay's count is of the stored cells: base plus delta.
    assert stored_cell_count(maintained, maintainer.logical_id) == (
        cube.stats.cell_count + DwarfBuilder(schema).build(delta).stats.cell_count
    )


def _check_selects(mapper, cube_id, expected_cube, specs):
    strategies = ["walk"]
    if mapper.mapping.cells.column("parent_node_id") is not None:
        strategies.append("scan")
    for spec in specs:
        expected = list(select(expected_cube, spec))
        for strategy in strategies:
            got = list(stored_select(mapper, cube_id, spec, strategy=strategy))
            assert got == expected, (strategy, spec)
