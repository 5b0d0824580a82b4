"""Regressions shared by the four storage schemas.

* ``reset()`` empties every mapper-local cache: stored ids restart at 1,
  so a cache keyed by id would otherwise answer for a cube that no
  longer exists.
* A coordinate vector of the wrong length is an error, exactly as
  ``mapper.load(id).value(...)`` makes it, on plain and maintained cubes.
"""

import pytest

from repro.core.errors import QueryError
from repro.core.schema import CubeSchema
from repro.dwarf.builder import DwarfBuilder
from repro.dwarf.cell import ALL
from repro.mapping.incremental import CubeMaintainer
from repro.mapping.registry import MAPPER_FACTORIES
from repro.mapping.stored_query import stored_point_query


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
