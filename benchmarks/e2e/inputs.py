"""Seeded inputs: feed documents and point-query vectors.

The program under test receives only what is generated here; the seed
never reaches it.  The same seed gives byte-identical documents and the
same vectors, a different seed a different city (station names,
districts, capacities, availability noise) of the same size.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple

from repro.dwarf.cell import ALL
from repro.dwarf.cube import DwarfCube
from repro.etl.documents import DocumentBatch
from repro.smartcity.bikes import BikeFeedGenerator
from repro.smartcity.city import CityModel


class FeedShape(NamedTuple):
    """Size of one bike feed: every station is read at every snapshot."""

    stations: int
    days: int
    snapshots_per_day: int

    @property
    def tuples(self) -> int:
        return self.stations * self.days * self.snapshots_per_day


def make_documents(shape: FeedShape, seed: int) -> DocumentBatch:
    """The XML snapshot documents of one feed, ``shape.tuples`` readings."""
    feed = BikeFeedGenerator(CityModel(seed), n_stations=shape.stations)
    return feed.generate_documents(
        days=shape.days, total_records=shape.tuples, content_type="xml"
    ).batch()


def make_vectors(cube: DwarfCube, seed: int, count: int) -> List[List]:
    """``count`` point-query vectors with 1-3 fixed dimensions.

    The station is always fixed and drawn zipf-like (a few stations take
    most of the queries, as dashboards do); a third of the vectors also
    fix the day and another third the day and the hour.
    """
    rng = random.Random(f"{seed}:vectors")
    schema = cube.schema
    station_at = schema.dimension_index("station")
    day_at = schema.dimension_index("day")
    hour_at = schema.dimension_index("hour")
    stations = cube.members("station")
    days = cube.members("day")
    hours = cube.members("hour")
    vectors = []
    for _ in range(count):
        vector = [ALL] * schema.n_dimensions
        rank = min(int(rng.paretovariate(1.2)), len(stations)) - 1
        vector[station_at] = stations[rank]
        fixed = rng.randrange(3)
        if fixed >= 1:
            vector[day_at] = rng.choice(days)
        if fixed == 2:
            vector[hour_at] = rng.choice(hours)
        vectors.append(vector)
    return vectors
