"""The in-memory oracle every timed answer is checked against.

Built once per set-up from the same documents the system is given, by
the serial builder and plain Python passes over ``transform_cube``
records — none of the engines, mappers or planners under test.  Checks
run after the clock has stopped and feed the attempted/failed counts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.dwarf_check import structural_signature
from repro.dwarf.builder import DwarfBuilder
from repro.dwarf.cube import DwarfCube
from repro.dwarf.query import Each, select
from repro.mapping.base import transform_cube
from repro.smartcity.bikes import bikes_pipeline

#: Share of leaf measures the selective aggregates keep (``measure > ?``).
SELECTIVITY = 0.10


class Tally:
    """Operations attempted and failed; keeps the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)


def build_cold(documents: Sequence) -> DwarfCube:
    """Serial extract + build: the reference every stored cube must equal."""
    facts = bikes_pipeline().extract(documents)
    return DwarfBuilder(facts.schema).build(facts)


class Oracle:
    """Expected answers for one feed.

    ``prefix_ends`` lists document counts at which a streaming run asks
    point queries; a cold cube over each prefix gives their answers.
    """

    def __init__(self, documents: Sequence, prefix_ends: Sequence[int] = ()) -> None:
        documents = list(documents)
        self.cube = build_cold(documents)
        self.n_tuples = self.cube.n_source_tuples
        self.signature = structural_signature(self.cube)
        cells = transform_cube(self.cube).cells
        self.n_cells = len(cells)
        self.n_nodes = self.cube.stats.node_count
        self.leaf_rows = sorted(
            (cell.key_text, cell.measure) for cell in cells if cell.is_leaf
        )
        measures = sorted(measure for _, measure in self.leaf_rows)
        self.threshold = measures[int(len(measures) * (1.0 - SELECTIVITY))]
        self.count_above = sum(
            1 for cell in cells
            if cell.measure is not None and cell.measure > self.threshold
        )
        self.leaf_sum_above = sum(
            measure for _, measure in self.leaf_rows if measure > self.threshold
        )
        self.by_station_day = list(select(self.cube, station=Each(), day=Each()))
        self.prefixes: Dict[int, DwarfCube] = {
            end: build_cold(documents[:end]) for end in prefix_ends
        }

    # ------------------------------------------------------------------
    def check_points(self, tally: Tally, vectors, answers, documents_seen=None) -> None:
        cube = self.cube if documents_seen is None else self.prefixes[documents_seen]
        for vector, answer in zip(vectors, answers):
            tally.check(answer == cube.value(vector), f"point {vector!r}: {answer!r}")
        tally.check(len(answers) == len(vectors), "point pass dropped answers")

    def check_cube(self, tally: Tally, cube: DwarfCube, what: str) -> None:
        tally.check(structural_signature(cube) == self.signature, f"{what} signature")

    def check_statement(self, tally: Tally, name: str, rows: List[dict]) -> None:
        """One scan/aggregate answer against the plain-Python expectation."""
        if name in ("cql.count", "sql.count"):
            ok = [row["count"] for row in rows] == [self.n_cells]
        elif name in ("cql.leaf_rows", "sql.leaf_rows"):
            key = "key" if name.startswith("cql") else "cell_key"
            ok = (
                sorted((row[key], row["measure"]) for row in rows) == self.leaf_rows
                and len({row["id"] for row in rows}) == len(rows)
            )
        elif name == "cql.count_above":
            ok = [row["count"] for row in rows] == [self.count_above]
        elif name == "sql.group_by_leaf":
            leaves = len(self.leaf_rows)
            ok = {bool(row["leaf"]): row["count"] for row in rows} == {
                True: leaves, False: self.n_cells - leaves,
            }
        elif name == "sql.sum_above":
            ok = [row["sum(measure)"] for row in rows] == [self.leaf_sum_above]
        elif name == "stored_select.scan":
            ok = rows == self.by_station_day
        else:
            raise KeyError(f"no expectation for statement {name!r}")
        tally.check(ok, f"statement {name}: {len(rows)} rows")
