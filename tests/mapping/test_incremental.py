"""Incremental maintenance: epochs, overlays, merges, compaction.

Every stage of the maintenance loop must answer exactly like a cold
rebuild over every fact seen so far — before a merge (base + delta
overlay), after the flip (merged base), and after compaction.
"""

import pytest

from repro.analysis.dwarf_check import structural_signature
from repro.core.schema import CubeSchema
from repro.dwarf.builder import DwarfBuilder
from repro.dwarf.cell import ALL
from repro.dwarf.query import Each, Member
from repro.dwarf.query import select as memory_select
from repro.mapping.base import MappingError
from repro.mapping.incremental import (
    CubeMaintainer,
    recover_epoch,
    resolve_epoch,
    resolve_merge_deltas,
)
from repro.mapping.mysql_dwarf import MySQLDwarfMapper
from repro.mapping.mysql_min import MySQLMinMapper
from repro.mapping.nosql_dwarf import NoSQLDwarfMapper
from repro.mapping.nosql_min import NoSQLMinMapper
from repro.mapping.stored_query import (
    stored_cell_count,
    stored_point_query,
    stored_select,
)

ALL_MAPPERS = [MySQLDwarfMapper, MySQLMinMapper, NoSQLDwarfMapper, NoSQLMinMapper]

BATCHES = [
    [("a", 1, "x", 5), ("a", 2, "y", 3), ("b", 1, "x", 2)],
    [("a", 1, "x", 4), ("b", 3, "z", 7)],
    [("c", 2, "y", 1), ("a", 2, "y", 6)],
]

PROBES = [
    ("a", 1, "x"),
    ("a", ALL, ALL),
    (ALL, ALL, ALL),
    (ALL, 2, "y"),
    ("b", 3, ALL),
    ("zz", 1, "x"),
]


def schema():
    return CubeSchema("inc", ["d1", "d2", "d3"])


def rebuild(n_batches):
    rows = [row for batch in BATCHES[:n_batches] for row in batch]
    return DwarfBuilder(schema()).build(rows)


def installed(mapper_cls):
    mapper = mapper_cls()
    mapper.install()
    return mapper


def assert_answers(mapper, logical_id, reference):
    for probe in PROBES:
        assert stored_point_query(mapper, logical_id, probe) == reference.value(probe)


@pytest.mark.parametrize("mapper_cls", ALL_MAPPERS, ids=lambda cls: cls.name)
class TestMaintenanceLoop:
    def test_overlay_then_merge_then_compact(self, mapper_cls):
        mapper = installed(mapper_cls)
        maintainer = CubeMaintainer.open(
            mapper, DwarfBuilder(schema()).build(BATCHES[0])
        )
        logical_id = maintainer.logical_id

        # Base only: a maintained cube answers like any stored cube.
        assert_answers(mapper, logical_id, rebuild(1))

        # Pre-merge overlay: every append is immediately visible.
        maintainer.append(BATCHES[1])
        assert_answers(mapper, logical_id, rebuild(2))
        maintainer.append(BATCHES[2])
        assert maintainer.pending_deltas == 2
        assert_answers(mapper, logical_id, rebuild(3))

        # Post-merge: one flip, same answers, new epoch.
        new_epoch = maintainer.merge()
        assert new_epoch == 1
        view = maintainer.view()
        assert view.delta_ids == ()
        assert len(view.retired_ids) == 3
        assert_answers(mapper, logical_id, rebuild(3))

        # The stored merged cube is the cube a cold rebuild produces.
        assert structural_signature(mapper.load(view.base_id)) == (
            structural_signature(rebuild(3))
        )

        # Compaction reclaims tombstoned rows without changing answers.
        assert maintainer.compact() > 0
        assert maintainer.view().retired_ids == ()
        assert_answers(mapper, logical_id, rebuild(3))

    def test_merge_async_publishes_before_join_returns(self, mapper_cls):
        mapper = installed(mapper_cls)
        maintainer = CubeMaintainer.open(
            mapper, DwarfBuilder(schema()).build(BATCHES[0])
        )
        maintainer.append(BATCHES[1])
        maintainer.merge_async()
        maintainer.wait()
        assert maintainer.view().epoch == 1
        assert_answers(mapper, maintainer.logical_id, rebuild(2))

    def test_attach_resumes_with_pending_deltas(self, mapper_cls):
        mapper = installed(mapper_cls)
        maintainer = CubeMaintainer.open(
            mapper, DwarfBuilder(schema()).build(BATCHES[0])
        )
        maintainer.append(BATCHES[1])

        resumed = CubeMaintainer.attach(mapper, maintainer.logical_id)
        assert resumed.pending_deltas == 1
        assert_answers(mapper, resumed.logical_id, rebuild(2))
        resumed.append(BATCHES[2])
        resumed.merge()
        assert_answers(mapper, resumed.logical_id, rebuild(3))

    def test_maintainer_value_reads_through_epoch(self, mapper_cls):
        mapper = installed(mapper_cls)
        maintainer = CubeMaintainer.open(
            mapper, DwarfBuilder(schema()).build(BATCHES[0])
        )
        maintainer.append(BATCHES[1])
        reference = rebuild(2)
        assert maintainer.value("a", 1, "x") == reference.value(("a", 1, "x"))
        assert maintainer.value(ALL, ALL, ALL) == reference.total()

    def test_compacted_ids_are_never_reissued(self, mapper_cls):
        mapper = installed(mapper_cls)
        maintainer = CubeMaintainer.open(
            mapper, DwarfBuilder(schema()).build(BATCHES[0])
        )
        maintainer.append(BATCHES[1])
        maintainer.merge()
        retired = set(maintainer.view().retired_ids)
        maintainer.compact()
        maintainer.append(BATCHES[2])
        view = maintainer.view()
        assert not (set(view.delta_ids) & retired)
        assert view.base_id not in retired


@pytest.mark.parametrize("mapper_cls", ALL_MAPPERS, ids=lambda cls: cls.name)
class TestEpochRow:
    def test_plain_stored_cubes_resolve_to_none(self, mapper_cls):
        mapper = installed(mapper_cls)
        physical = mapper.store(
            DwarfBuilder(schema()).build(BATCHES[0]), is_cube=True
        )
        assert resolve_epoch(mapper, physical) is None
        # And the query path keeps direct physical-id semantics.
        assert stored_point_query(mapper, physical, (ALL, ALL, ALL)) == (
            rebuild(1).total()
        )

    def test_recover_clears_unregistered_intent(self, mapper_cls):
        from repro.mapping.incremental import _update_epoch_row, require_epoch

        mapper = installed(mapper_cls)
        maintainer = CubeMaintainer.open(
            mapper, DwarfBuilder(schema()).build(BATCHES[0])
        )
        view = require_epoch(mapper, maintainer.logical_id)
        view.pending_id = 999  # intent recorded, store never started
        _update_epoch_row(mapper, view)

        recovered = recover_epoch(mapper, maintainer.logical_id)
        assert recovered.pending_id == 0
        assert recovered.retired_ids == ()
        assert_answers(mapper, maintainer.logical_id, rebuild(1))

def test_resolve_merge_deltas_env(monkeypatch):
    monkeypatch.delenv("REPRO_MERGE_DELTAS", raising=False)
    assert resolve_merge_deltas() == 4
    monkeypatch.setenv("REPRO_MERGE_DELTAS", "2")
    assert resolve_merge_deltas() == 2
    assert resolve_merge_deltas(6) == 6
    monkeypatch.setenv("REPRO_MERGE_DELTAS", "junk")
    assert resolve_merge_deltas() == 4


class TestOverlayQueries:
    """NoSQL-DWARF-only read paths over the pre-merge overlay."""

    def setup_method(self):
        self.mapper = installed(NoSQLDwarfMapper)
        self.maintainer = CubeMaintainer.open(
            self.mapper, DwarfBuilder(schema()).build(BATCHES[0])
        )
        self.maintainer.append(BATCHES[1])
        self.maintainer.append(BATCHES[2])
        self.reference = rebuild(3)

    def test_stored_select_overlay_matches_memory_walk(self):
        for strategy in ("walk", "scan"):
            got = list(
                stored_select(
                    self.mapper, self.maintainer.logical_id,
                    strategy=strategy, d1=Each(), d2=Member(2),
                )
            )
            assert got == list(memory_select(self.reference, d1=Each(), d2=Member(2)))

    def test_stored_select_order_survives_the_flip(self):
        before = list(
            stored_select(self.mapper, self.maintainer.logical_id, d1=Each())
        )
        self.maintainer.merge()
        after = list(
            stored_select(self.mapper, self.maintainer.logical_id, d1=Each())
        )
        assert before == after

    def test_stored_cell_count_sums_the_overlay(self):
        logical_id = self.maintainer.logical_id
        overlay_total = stored_cell_count(self.mapper, logical_id)
        view = self.maintainer.view()
        per_cube = sum(
            len(list(self.mapper.session.execute(
                "SELECT id FROM dwarf_cell WHERE schema_id = ? ALLOW FILTERING",
                (physical,),
            )))
            for physical in view.cube_ids
        )
        assert overlay_total == per_cube
        self.maintainer.merge()
        assert stored_cell_count(self.mapper, logical_id) < overlay_total


class TestPlanCacheKeying:
    """Stored-query kernel plans must key on the cube epoch, not on
    statement text alone."""

    def _stored_keys(self, mapper):
        return [
            key
            for key, _plan in mapper.session.plan_cache.entries()
            if isinstance(key, tuple) and any(
                isinstance(part, str) and part.startswith("stored:")
                for part in key
            )
        ]

    def test_epoch_flip_rekeys_kernel_plans(self):
        mapper = installed(NoSQLDwarfMapper)
        maintainer = CubeMaintainer.open(
            mapper, DwarfBuilder(schema()).build(BATCHES[0])
        )
        stored_point_query(mapper, maintainer.logical_id, ("a", 1, "x"))
        before = set(self._stored_keys(mapper))
        assert before

        maintainer.append(BATCHES[1])
        maintainer.merge()  # bumps mapper.cube_epoch
        stored_point_query(mapper, maintainer.logical_id, ("a", 1, "x"))
        after = set(self._stored_keys(mapper))
        assert after - before, "post-flip query must build a fresh plan key"
