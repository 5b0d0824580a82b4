"""Incremental cube maintenance: epochs, delta stores, background merge.

The batch pipeline stores one cube and queries it forever; a live feed
needs the stored cube to *follow* the stream.  This module adds the
maintenance loop on top of the existing mappers, with one small registry
table per storage schema (``dwarf_epoch`` / ``DWARF_EPOCH``):

==============  ======================================================
column          meaning
==============  ======================================================
``id``          the **logical** cube id clients query (stable forever;
                equals the first base's physical id)
``epoch``       bumped by every merge flip
``base_id``     physical id of the current merged base cube
``delta_ids``   physical ids of delta cubes not yet folded in
                (comma-joined; the pre-merge overlay)
``retired_ids`` tombstoned physical ids awaiting compaction
``pending_id``  physical id a store in flight intends to register
                (crash-recovery intent marker; 0 = none)
==============  ======================================================

Readers resolve the logical id through **one primary-key read** of this
row (:func:`resolve_epoch`) and then touch only the physical cubes it
names.  Appends add a delta id; a merge stores the folded cube under a
fresh physical id and then *flips* the row in a single UPDATE — epoch+1,
new base, empty delta list, old base + deltas tombstoned — so any query
sees either the pre-merge overlay (base + deltas) or the post-merge base,
never a torn mix.  :func:`compact_epoch` reclaims the tombstoned rows;
the one-line registry entries of retired cubes are kept as allocation
watermarks so ``_next_ids`` never reissues a reclaimed id range.

Crash safety: every store first records its predicted physical id in
``pending_id`` and clears it in the same UPDATE that publishes the
result.  After a crash (NoSQL: ``replay_commit_log``; SQL: the surviving
heap), :func:`recover_epoch` finds the orphaned intent, tombstones any
partially/fully written rows under that id, and leaves the last
*published* epoch authoritative — the overlay answers exactly as before
the crash.

:class:`CubeMaintainer` drives the loop in memory: build a delta per
micro-batch (:class:`~repro.dwarf.delta.DeltaDwarfBuilder`), store it,
and fold deltas into the base in a background thread while foreground
stored queries keep answering through the epoch row.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.dwarf.cube import DwarfCube
from repro.dwarf.delta import DeltaDwarfBuilder
from repro.mapping.base import CubeMapper, MappingError, cached_statement
from repro.telemetry import get_registry, get_tracer

__all__ = [
    "CubeMaintainer",
    "EpochView",
    "compact_epoch",
    "open_epoch",
    "recover_epoch",
    "resolve_epoch",
    "resolve_merge_deltas",
    "store_delta",
]

_REGISTRY = get_registry()
_G_CUBE_EPOCH = _REGISTRY.gauge(
    "cube_epoch", "current epoch of the maintained cube, by storage schema",
    labels=("schema",),
)
_M_DELTA_STORES = _REGISTRY.counter(
    "mapper_delta_stores_total", "delta cubes stored, by storage schema",
    labels=("schema",),
)
_M_EPOCH_FLIPS = _REGISTRY.counter(
    "mapper_epoch_flips_total", "merge flips published, by storage schema",
    labels=("schema",),
)
_M_RECLAIMED = _REGISTRY.counter(
    "mapper_compacted_rows_total",
    "tombstoned node/cell/link rows reclaimed by compaction",
    labels=("schema",),
)

#: Fold pending deltas into the base after this many appends when the
#: caller does not choose explicitly (``REPRO_MERGE_DELTAS``).
DEFAULT_MERGE_DELTAS = 4


def resolve_merge_deltas(merge_deltas: Optional[int] = None) -> int:
    """Merge cadence: explicit argument > ``REPRO_MERGE_DELTAS`` > 4."""
    import os

    if merge_deltas is None:
        env = os.environ.get("REPRO_MERGE_DELTAS", "").strip()
        if env:
            try:
                merge_deltas = int(env)
            except ValueError:
                merge_deltas = DEFAULT_MERGE_DELTAS
        else:
            merge_deltas = DEFAULT_MERGE_DELTAS
    return max(1, int(merge_deltas))


@dataclass
class EpochView:
    """One consistent read of a logical cube's epoch row."""

    logical_id: int
    epoch: int
    base_id: int
    delta_ids: Tuple[int, ...]
    retired_ids: Tuple[int, ...]
    pending_id: int

    @property
    def cube_ids(self) -> Tuple[int, ...]:
        """Physical cubes a query must consult: base plus unfolded deltas."""
        return (self.base_id,) + self.delta_ids


# ----------------------------------------------------------------------
# epoch-row I/O (the table name comes from the schema declaration)
# ----------------------------------------------------------------------
def _encode_ids(ids: Sequence[int]) -> str:
    return ",".join(str(i) for i in ids)


def _decode_ids(text: Optional[str]) -> Tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _has_epoch_table(mapper: CubeMapper) -> bool:
    # Only a positive answer sticks: install() may create the table after
    # the first probe.
    if not mapper._epoch_table_present:
        try:
            space = mapper.space()
        except Exception:  # the keyspace/database is not installed yet
            return False
        mapper._epoch_table_present = space.has_table(mapper.mapping.epochs.name)
    return mapper._epoch_table_present


def resolve_epoch(mapper: CubeMapper, logical_id: int) -> Optional[EpochView]:
    """The epoch row for ``logical_id`` — one primary-key read — or
    ``None`` when the id is not a maintained cube (legacy stored cubes
    keep their direct physical-id semantics)."""
    if not _has_epoch_table(mapper):
        return None
    statement = cached_statement(
        mapper, f"SELECT * FROM {mapper.mapping.epochs.name} WHERE id = ?"
    )
    row = mapper.session.execute_prepared(statement, (logical_id,)).one()
    if row is None:
        return None
    return EpochView(
        logical_id=row["id"],
        epoch=row["epoch"],
        base_id=row["base_id"],
        delta_ids=_decode_ids(row["delta_ids"]),
        retired_ids=_decode_ids(row["retired_ids"]),
        pending_id=row["pending_id"] or 0,
    )


def require_epoch(mapper: CubeMapper, logical_id: int) -> EpochView:
    view = resolve_epoch(mapper, logical_id)
    if view is None:
        raise MappingError(
            f"{mapper.name}: no maintained cube with logical id {logical_id}"
        )
    return view


def _insert_epoch_row(mapper: CubeMapper, view: EpochView) -> None:
    statement = cached_statement(
        mapper,
        f"INSERT INTO {mapper.mapping.epochs.name} "
        "(id, epoch, base_id, delta_ids, retired_ids, pending_id) "
        "VALUES (?, ?, ?, ?, ?, ?)",
    )
    mapper.session.execute_prepared(statement, (view.logical_id, *_epoch_values(view)))


def _update_epoch_row(mapper: CubeMapper, view: EpochView) -> None:
    """Publish ``view`` — one single-row UPDATE, the atomic flip point."""
    statement = cached_statement(
        mapper,
        f"UPDATE {mapper.mapping.epochs.name} SET epoch = ?, base_id = ?, "
        "delta_ids = ?, retired_ids = ?, pending_id = ? WHERE id = ?",
    )
    mapper.session.execute_prepared(statement, (*_epoch_values(view), view.logical_id))


def _epoch_values(view: EpochView) -> tuple:
    """The row's non-key columns, in SET-clause order."""
    return (
        view.epoch, view.base_id, _encode_ids(view.delta_ids),
        _encode_ids(view.retired_ids), view.pending_id,
    )


def _predict_physical_id(mapper: CubeMapper) -> int:
    """The id the next ``store()`` will register (the intent marker).

    Valid while the caller holds the maintainer's write lock — nothing
    else may store into this mapper between prediction and store.
    """
    return mapper._next_ids()["schema"]


# ----------------------------------------------------------------------
# storage-side maintenance primitives
# ----------------------------------------------------------------------
def open_epoch(mapper: CubeMapper, base: DwarfCube) -> int:
    """Store ``base`` and open its maintenance epoch; returns the logical
    id clients query from now on."""
    if not _has_epoch_table(mapper):
        raise MappingError(
            f"{mapper.name}: install() must create {mapper.mapping.epochs.name} "
            "before opening a maintained cube"
        )
    physical = mapper.store(base, is_cube=True)
    view = EpochView(
        logical_id=physical, epoch=0, base_id=physical,
        delta_ids=(), retired_ids=(), pending_id=0,
    )
    _insert_epoch_row(mapper, view)
    _G_CUBE_EPOCH.labels(mapper.name).set(0)
    return physical


def store_delta(mapper: CubeMapper, logical_id: int, delta: DwarfCube) -> int:
    """Persist one delta cube and publish it into the overlay.

    The intent marker (``pending_id``) is set before any row is written
    and cleared by the same UPDATE that appends the delta to
    ``delta_ids`` — a crash in between leaves a recoverable orphan, never
    a half-visible delta.
    """
    view = require_epoch(mapper, logical_id)
    with get_tracer().span("ingest.store_delta", schema=mapper.name):
        pending = _predict_physical_id(mapper)
        view.pending_id = pending
        _update_epoch_row(mapper, view)
        physical = mapper.store(delta, is_cube=False, probe_size=False)
        view.delta_ids = view.delta_ids + (physical,)
        view.pending_id = 0
        _update_epoch_row(mapper, view)
    _M_DELTA_STORES.labels(mapper.name).inc()
    return physical


def flip_epoch(mapper: CubeMapper, logical_id: int, merged: DwarfCube) -> Tuple[int, int]:
    """Store ``merged`` and atomically make it the new base.

    Returns ``(new_base_physical_id, new_epoch)``.  The superseded base
    and the folded deltas are tombstoned for :func:`compact_epoch`.
    """
    view = require_epoch(mapper, logical_id)
    pending = _predict_physical_id(mapper)
    view.pending_id = pending
    _update_epoch_row(mapper, view)
    new_id = mapper.store(merged, is_cube=True)
    flipped = replace(
        view, epoch=view.epoch + 1, base_id=new_id, delta_ids=(), pending_id=0,
        retired_ids=view.retired_ids + (view.base_id,) + view.delta_ids,
    )
    _update_epoch_row(mapper, flipped)
    mapper.bump_cube_epoch()
    _M_EPOCH_FLIPS.labels(mapper.name).inc()
    _G_CUBE_EPOCH.labels(mapper.name).set(flipped.epoch)
    return new_id, flipped.epoch


def compact_epoch(mapper: CubeMapper, logical_id: int) -> int:
    """Reclaim the tombstoned physical cubes; returns rows deleted.

    Node/cell/link/dimension rows of every retired id are removed; the
    one-line registry entries stay behind as allocation watermarks (they
    keep ``_next_ids`` monotone so reclaimed id ranges are never reused).
    """
    view = require_epoch(mapper, logical_id)
    with get_tracer().span("ingest.compact", schema=mapper.name):
        reclaimed = mapper.delete_cube_rows(view.retired_ids)
        view.retired_ids = ()
        _update_epoch_row(mapper, view)
    if reclaimed:
        _M_RECLAIMED.labels(mapper.name).inc(reclaimed)
    mapper.bump_cube_epoch()
    return reclaimed


def recover_epoch(mapper: CubeMapper, logical_id: int) -> EpochView:
    """Resolve an interrupted store after a crash.

    If the epoch row carries an intent marker, the store it announced
    never published: whatever rows it managed to write are tombstoned
    (when the physical id got as far as the registry) and the marker is
    cleared.  The last published epoch — base + overlay — remains
    authoritative and answers exactly as before the crash.
    """
    view = require_epoch(mapper, logical_id)
    if not view.pending_id:
        return view
    try:
        mapper.info(view.pending_id)
        view.retired_ids = view.retired_ids + (view.pending_id,)
    except MappingError:
        pass  # the store never reached the registry: nothing to retire
    view.pending_id = 0
    _update_epoch_row(mapper, view)
    mapper.bump_cube_epoch()
    return view


# ----------------------------------------------------------------------
# the in-memory maintenance loop
# ----------------------------------------------------------------------
class CubeMaintainer:
    """Drive incremental maintenance of one stored cube.

    Holds the in-memory base and pending delta cubes, serialises every
    storage write behind one lock, and folds deltas into the base either
    synchronously (:meth:`merge`) or on a background thread
    (:meth:`merge_async`) while foreground queries read through the
    epoch row.
    """

    def __init__(
        self,
        mapper: CubeMapper,
        base: DwarfCube,
        logical_id: int,
        epoch: int = 0,
        deltas: Sequence[DwarfCube] = (),
    ) -> None:
        self.mapper = mapper
        self.schema = base.schema
        self.logical_id = logical_id
        self.epoch = epoch
        self._base_cube = base
        self._delta_cubes: List[DwarfCube] = list(deltas)
        self._delta_builder = DeltaDwarfBuilder(base.schema)
        self._write_lock = threading.Lock()
        self._merge_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, mapper: CubeMapper, base: DwarfCube) -> "CubeMaintainer":
        """Store ``base`` as a new maintained cube and start its loop."""
        logical_id = open_epoch(mapper, base)
        return cls(mapper, base, logical_id)

    @classmethod
    def attach(cls, mapper: CubeMapper, logical_id: int) -> "CubeMaintainer":
        """Resume maintenance of a stored cube (e.g. after a restart):
        the base and any unfolded deltas are reloaded from storage."""
        view = recover_epoch(mapper, logical_id)
        base = mapper.load(view.base_id)
        deltas = [mapper.load(delta_id) for delta_id in view.delta_ids]
        return cls(mapper, base, logical_id, epoch=view.epoch, deltas=deltas)

    # ------------------------------------------------------------------
    @property
    def base_cube(self) -> DwarfCube:
        """The in-memory merged base (foreground reads go to storage)."""
        return self._base_cube

    @property
    def pending_deltas(self) -> int:
        return len(self._delta_cubes)

    def view(self) -> EpochView:
        return require_epoch(self.mapper, self.logical_id)

    # ------------------------------------------------------------------
    def append(self, facts) -> int:
        """Build a delta cube from one micro-batch and publish it into
        the overlay; returns the delta's physical id."""
        delta = self._delta_builder.build_delta(facts)
        with self._write_lock:
            physical = store_delta(self.mapper, self.logical_id, delta)
            self._delta_cubes.append(delta)
        return physical

    def merge(self) -> int:
        """Fold every pending delta into the base and flip the epoch.

        Returns the epoch after the merge (unchanged when there was
        nothing to fold).
        """
        with self._write_lock:
            if not self._delta_cubes:
                return self.epoch
            merged = self._delta_builder.merge(self._base_cube, *self._delta_cubes)
            _, new_epoch = flip_epoch(self.mapper, self.logical_id, merged)
            self._base_cube = merged
            self._delta_cubes.clear()
            self._delta_builder.reset_memo()
            self.epoch = new_epoch
            return new_epoch

    def merge_async(self) -> threading.Thread:
        """Run :meth:`merge` on a background thread.

        Appends keep working (they serialise on the write lock) and
        foreground stored queries are answered from the pre-merge overlay
        until the flip publishes.  :meth:`wait` joins the thread.
        """
        thread = threading.Thread(
            target=self.merge, name=f"delta-merge-{self.logical_id}", daemon=True
        )
        self._merge_thread = thread
        thread.start()
        return thread

    def wait(self, timeout: Optional[float] = None) -> None:
        """Join an in-flight background merge (no-op when idle)."""
        thread = self._merge_thread
        if thread is not None:
            thread.join(timeout)
            if not thread.is_alive():
                self._merge_thread = None

    def compact(self) -> int:
        """Reclaim tombstoned rows of superseded physical cubes."""
        with self._write_lock:
            return compact_epoch(self.mapper, self.logical_id)

    # ------------------------------------------------------------------
    def value(self, *coordinates):
        """Answer a point query through the epoch row (overlay-aware)."""
        from repro.mapping.stored_query import stored_point_query

        return stored_point_query(self.mapper, self.logical_id, coordinates)

    def __repr__(self) -> str:
        return (
            f"CubeMaintainer({self.mapper.name}, logical={self.logical_id}, "
            f"epoch={self.epoch}, pending_deltas={self.pending_deltas})"
        )
