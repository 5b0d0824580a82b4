"""Regressions shared by the four storage schemas.

* ``reset()`` empties every mapper-local cache: stored ids restart at 1,
  so a cache keyed by id would otherwise answer for a cube that no
  longer exists.
* A coordinate vector of the wrong length is an error, exactly as
  ``mapper.load(id).value(...)`` makes it, on plain and maintained cubes.
* A cell row lost, repeated or orphaned in storage makes ``load`` fail
  with :class:`MappingError`; it used to reload silently as a different
  (or the same, with a stray row ignored) cube.
* A non-leaf cell whose pointer is lost makes every stored query through
  it fail with :class:`MappingError`, as ``load`` does; the walk used to
  answer "no such fact" (None, or no rows).
"""

import pytest

from repro.core.errors import QueryError
from repro.core.schema import CubeSchema
from repro.dwarf.builder import DwarfBuilder
from repro.dwarf.query import Each
from repro.dwarf.cell import ALL
from repro.mapping.base import ALL_KEY_TEXT, MappingError, encode_member
from repro.mapping.incremental import CubeMaintainer
from repro.mapping.registry import MAPPER_FACTORIES
from repro.mapping.stored_query import stored_point_query, stored_select


def _installed(name):
    mapper = MAPPER_FACTORIES[name]()
    mapper.install()
    return mapper


@pytest.mark.parametrize("name", list(MAPPER_FACTORIES))
def test_reset_forgets_the_cached_aggregator(name):
    mapper = _installed(name)

    def maintained(aggregator):
        schema = CubeSchema("r", ["d1", "d2"], aggregator=aggregator)
        maintainer = CubeMaintainer.open(
            mapper, DwarfBuilder(schema).build([("a", 1, 5)])
        )
        maintainer.append([("a", 1, 4)])
        return maintainer

    summed = maintained("sum")
    assert stored_point_query(mapper, summed.logical_id, [ALL, ALL]) == 9

    mapper.reset()
    maxed = maintained("max")
    assert maxed.logical_id == summed.logical_id  # ids restart after reset
    assert stored_point_query(mapper, maxed.logical_id, [ALL, ALL]) == 5


@pytest.mark.parametrize("maintained", [False, True], ids=["plain", "maintained"])
@pytest.mark.parametrize("name", list(MAPPER_FACTORIES))
def test_wrong_length_vector_raises_like_the_cube(name, maintained):
    schema = CubeSchema("w", ["d1", "d2"])
    cube = DwarfBuilder(schema).build([("a", 1, 5), ("b", 2, 3)])
    mapper = _installed(name)
    if maintained:
        maintainer = CubeMaintainer.open(mapper, cube)
        maintainer.append([("a", 1, 4)])
        cube_id = maintainer.logical_id
    else:
        cube_id = mapper.store(cube)

    for vector in (["a", 1, ALL], ["a"]):
        with pytest.raises(QueryError) as expected:
            cube.value(vector)
        with pytest.raises(QueryError) as got:
            stored_point_query(mapper, cube_id, vector)
        assert str(got.value) == str(expected.value)


#: A parent node id no stored cube uses.
ORPHAN_PARENT = 900_000

#: What ``load`` reports for each kind of damage.
DAMAGE_ERRORS = {
    "deleted": "rebuild 35 cells / 11 nodes, the registry records 36 / 11",
    "duplicated": "holds a member key twice",
    "orphan": "unreachable from entry node",
}


def _leaf_member_row(mapper, schema_id):
    """One stored leaf cell row of ``schema_id`` that is not an ALL cell."""
    cells, backend = mapper.mapping.cells, mapper.mapping.backend
    rows = mapper.session.execute(
        f"SELECT * FROM {cells.name} WHERE {cells.column('schema_id')} = ?"
        + backend.filtering, (schema_id,),
    )
    key, leaf = cells.column("key_text"), cells.column("is_leaf")
    return min(
        (row for row in rows if row[leaf] and row[key] != ALL_KEY_TEXT),
        key=lambda row: row[cells.column("cell_id")],
    )


def _insert_copy(mapper, row, cell_id, parent=None):
    """Store a copy of cell ``row`` as cell ``cell_id`` — under the same
    parent node, or under ``parent``."""
    mapping, session = mapper.mapping, mapper.session
    cells = mapping.cells
    old_id = row[cells.column("cell_id")]
    values = dict(row, **{cells.column("cell_id"): cell_id})
    if parent is not None and cells.column("parent_node_id") is not None:
        values[cells.column("parent_node_id")] = parent
    session.execute(cells.insert(), tuple(values[c.name] for c in cells.written))
    link = mapping.link("parent_node_id")
    if link is not None:  # the node -> cell edge lives in a link table
        node, cell = link.column("parent_node_id"), link.column("cell_id")
        if parent is None:
            edges = session.execute(f"SELECT * FROM {link.name}")
            parent = next(edge[node] for edge in edges if edge[cell] == old_id)
        session.execute(link.insert(), (parent, cell_id))


@pytest.mark.parametrize("damage", ["deleted", "duplicated", "orphan"])
@pytest.mark.parametrize("name", list(MAPPER_FACTORIES))
def test_load_refuses_a_lost_or_extra_cell_row(name, damage):
    schema = CubeSchema("damaged", ["country", "city", "station"])
    cube = DwarfBuilder(schema).build([
        ("France", "Paris", "Rue Cler", 7), ("France", "Lyon", "Bellecour", 4),
        ("Ireland", "Cork", "Patrick St", 2), ("Ireland", "Dublin", "Fenian St", 3),
        ("Ireland", "Dublin", "Portobello", 5),
    ])
    mapper = _installed(name)
    schema_id = mapper.store(cube)
    row = _leaf_member_row(mapper, schema_id)
    cells = mapper.mapping.cells
    if damage == "deleted":
        mapper.session.execute(
            f"DELETE FROM {cells.name} WHERE {cells.column('cell_id')} = ?",
            (row[cells.column("cell_id")],),
        )
    else:
        parent = ORPHAN_PARENT if damage == "orphan" else None
        _insert_copy(mapper, row, ORPHAN_PARENT + 1, parent)
    with pytest.raises(MappingError, match=DAMAGE_ERRORS[damage]):
        mapper.load(schema_id)


def _lose_pointer(mapper, schema_id, key):
    """Corrupt the pointer of the non-leaf cell ``key`` of cube
    ``schema_id``: null the cell's pointer column, or delete its
    cell -> node link row where a link table holds the pointer."""
    mapping, session = mapper.mapping, mapper.session
    cells = mapping.cells
    rows = session.execute(
        f"SELECT * FROM {cells.name} WHERE {cells.column('schema_id')} = ?"
        + mapping.backend.filtering, (schema_id,),
    )
    (cell_id,) = [row[cells.column("cell_id")] for row in rows
                  if row[cells.column("key_text")] == encode_member(key)]
    pointer = cells.column("pointer_node_id")
    if pointer is not None:
        session.execute(
            f"UPDATE {cells.name} SET {pointer} = null WHERE {cells.column('cell_id')} = ?",
            (cell_id,),
        )
    else:
        link = mapping.link("pointer_node_id")
        session.execute(f"DELETE FROM {link.name} WHERE {link.column('cell_id')} = ?", (cell_id,))


@pytest.mark.parametrize("name", list(MAPPER_FACTORIES))
def test_a_lost_pointer_is_an_error_not_a_missing_fact(name):
    cube = DwarfBuilder(CubeSchema("p", ["d0", "d1"])).build(
        [("x", 1, 5), ("x", 2, 3), ("y", 1, 2)]
    )
    mapper = _installed(name)
    schema_id = mapper.store(cube)
    assert stored_point_query(mapper, schema_id, ["x", ALL]) == 8
    _lose_pointer(mapper, schema_id, "x")

    with pytest.raises(MappingError, match="points at missing node None"):
        mapper.load(schema_id)
    with pytest.raises(MappingError, match="points at no node"):
        stored_point_query(mapper, schema_id, ["x", ALL])
    assert stored_point_query(mapper, schema_id, ["y", ALL]) == 2  # the rest still answers
    strategies = ["walk"] + (["scan"] if mapper.mapping.cells.column("parent_node_id") else [])
    for strategy in strategies:
        with pytest.raises(MappingError, match="points at no node"):
            list(stored_select(mapper, schema_id, strategy=strategy, d0=Each()))
