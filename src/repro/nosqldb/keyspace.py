"""Keyspaces: the databases of the columnar NoSQL engine (paper §3)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.nosqldb.columnfamily import Column, ColumnFamily
from repro.nosqldb.commitlog import CommitLog
from repro.nosqldb.errors import AlreadyExists, InvalidRequest
from repro.telemetry import get_registry, get_tracer

_M_REPLAYED = get_registry().counter(
    "nosqldb_commitlog_replayed_total", "mutations re-applied by crash recovery"
)


class Keyspace:
    """A named collection of column families.

    ``durable_writes`` enables the shared commit log: every mutation is
    appended, fully serialised, before the write that makes it returns —
    which is what makes crash recovery (:meth:`replay_commit_log`)
    possible.
    """

    def __init__(self, name: str, durable_writes: bool = True, data_dir=None) -> None:
        self.name = name
        self.durable_writes = durable_writes
        self.data_dir = data_dir
        self._tables: Dict[str, ColumnFamily] = {}
        self._commit_log: Optional[CommitLog] = CommitLog() if durable_writes else None

    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: str,
        compression: bool = True,
        if_not_exists: bool = False,
    ) -> ColumnFamily:
        """Create a column family.

        Raises AlreadyExists for duplicate names unless ``if_not_exists``.
        """
        lowered = name.lower()
        if lowered in self._tables:
            if if_not_exists:
                return self._tables[lowered]
            raise AlreadyExists(f"table {name!r} already exists in keyspace {self.name!r}")
        table_dir = None
        if self.data_dir is not None:
            table_dir = self.data_dir / name.lower()
            table_dir.mkdir(parents=True, exist_ok=True)
        table = ColumnFamily(
            name,
            columns,
            primary_key,
            compression=compression,
            commit_log=self._commit_log,
            data_dir=table_dir,
        )
        self._tables[lowered] = table
        return table

    def drop_table(self, name: str) -> None:
        """Raises InvalidRequest when no such table exists."""
        if name.lower() not in self._tables:
            raise InvalidRequest(f"no table {name!r} in keyspace {self.name!r}")
        del self._tables[name.lower()]

    def table(self, name: str) -> ColumnFamily:
        """Raises InvalidRequest when no such table exists."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise InvalidRequest(f"no table {name!r} in keyspace {self.name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    @property
    def tables(self) -> Tuple[ColumnFamily, ...]:
        return tuple(self._tables.values())

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Total on-disk footprint of all column families (post-flush)."""
        return sum(table.size_bytes for table in self._tables.values())

    @property
    def commit_log_bytes(self) -> int:
        return self._commit_log.size_bytes if self._commit_log is not None else 0

    def clear_commit_log(self) -> None:
        """Discard the commit log (checkpoint after flush)."""
        if self._commit_log is not None:
            self._commit_log.checkpoint()

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def simulate_crash(self) -> None:
        """Drop every table's volatile state (memtables), keep SSTables.

        Used by failure-injection tests; pair with
        :meth:`replay_commit_log` to recover.
        """
        for table in self._tables.values():
            table.drop_volatile_state()

    def replay_commit_log(self) -> int:
        """Re-apply every logged mutation; returns the count replayed.

        Raises InvalidRequest when the keyspace has durable writes
        disabled (there is no log to replay).

        Mutations for tables that no longer exist are skipped (Cassandra
        logs a warning and moves on).  Secondary indexes are rebuilt from
        the recovered data afterwards.
        """
        if self._commit_log is None:
            raise InvalidRequest(f"keyspace {self.name!r} has durable_writes disabled")
        replayed = 0
        with get_tracer().span("nosqldb.commitlog.replay", keyspace=self.name) as span:
            for table_name, key, encoded_row in self._commit_log.records():
                lowered = table_name.lower()
                table = self._tables.get(lowered)
                if table is None:
                    continue
                table.apply_replayed(key, encoded_row)
                replayed += 1
            for table in self._tables.values():
                table.rebuild_indexes()
            span.set("replayed", replayed)
        _M_REPLAYED.inc(replayed)
        return replayed

    def __repr__(self) -> str:
        return f"Keyspace({self.name!r}, tables={sorted(self._tables)})"
