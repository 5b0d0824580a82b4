"""Incremental maintenance: epochs, overlays, merges, compaction.

Every stage of the maintenance loop must answer exactly like a cold
rebuild over every fact seen so far — before a merge (base + delta
overlay), after the flip (merged base), and after compaction.
"""

from unittest import mock

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
from repro.telemetry import get_query_log

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


def owned_rows(mapper):
    """Every row of each table a stored cube owns (all but the
    registry and the epoch table), by table."""
    return {
        table: mapper.session.execute(f"SELECT * FROM {table.name}").rows
        for table in mapper.mapping.stored_tables[1:]
    }


def assert_only_live_rows(mapper, before, after, retired, reclaimed):
    """Compaction left no row of a ``retired`` cube, no link row of a
    cell that is gone, and removed exactly ``reclaimed`` rows."""
    for table, rows in after.items():
        cube = table.column("schema_id")
        if cube is not None:
            assert not {row[cube] for row in rows} & set(retired), table.name
    cells = mapper.mapping.cells
    live = {row[cells.column("cell_id")] for row in after[cells]}
    for link in mapper.mapping.links:
        assert {row[link.column("cell_id")] for row in after[link]} <= live, link.name
    assert reclaimed == sum(len(before[table]) - len(after[table]) for table in before)


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

        # Compaction reclaims exactly the tombstoned rows without
        # changing answers.
        before = owned_rows(mapper)
        reclaimed = maintainer.compact()
        assert reclaimed > 0
        assert_only_live_rows(mapper, before, owned_rows(mapper), view.retired_ids, reclaimed)
        assert maintainer.view().retired_ids == ()
        assert_answers(mapper, logical_id, rebuild(3))

    @pytest.mark.parametrize("n_facts", [4, 400])
    def test_compaction_is_one_key_batch_per_table(self, mapper_cls, n_facts, monkeypatch):
        """Whatever the cube's size and however many cubes it retires, a
        compaction removes them with one ``execute_many`` per owned table
        — one query-log record each — and runs no DELETE statement row
        by row."""
        facts = [(f"s{i % 13}", i % 9, f"h{i % 5}", i) for i in range(n_facts)]
        mapper = installed(mapper_cls)
        maintainer = CubeMaintainer.open(mapper, DwarfBuilder(schema()).build(facts[::2]))
        maintainer.append(facts[1::2])
        maintainer.merge()
        retired = maintainer.view().retired_ids
        session = mapper.session
        log = get_query_log()
        monkeypatch.setattr(log, "enabled", True)
        log.reset()
        with mock.patch.object(session, "execute", wraps=session.execute) as single, \
                mock.patch.object(session, "execute_prepared",
                                  wraps=session.execute_prepared) as prepared, \
                mock.patch.object(session, "execute_many", wraps=session.execute_many) as many:
            maintainer.compact()
        owned = mapper.mapping.stored_tables[1:]
        assert len(retired) > 1
        assert sorted(call.args[0].text for call in many.call_args_list) == sorted(
            table.delete() for table in owned
        )
        texts = [call.args[0] for call in single.call_args_list] + [
            call.args[0].text for call in prepared.call_args_list
        ]
        assert not [text for text in texts if text.startswith("DELETE")]
        deletes = [r for r in log.records() if r.fingerprint.startswith("DELETE")]
        log.reset()
        assert len(deletes) == len(owned)

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
