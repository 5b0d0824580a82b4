"""CQL sessions: the client surface of the NoSQL engine.

The session itself is the shared :class:`repro.query.Session` (mirroring
the Python Cassandra driver: ``execute``, ``prepare`` + bound parameters,
and ``execute_many`` for the bulk loads the paper uses, §5); this module
only declares the CQL dialect it runs.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.flags import check_tables
from repro.nosqldb.cql.executor import CQLExecutor
from repro.nosqldb.cql.parser import parse
from repro.query import Dialect, PreparedStatement, Session as _Session


def _tables(engine, keyspace: Optional[str]):
    if keyspace is None or not engine.has_keyspace(keyspace):
        return ()
    return engine.keyspace(keyspace).tables


CQL_DIALECT = Dialect(
    label="cql",
    parse=parse,
    executor=CQLExecutor,
    tables=_tables,
    check=check_tables,
)


class Session(_Session):
    """A connection to the NoSQL engine with an optional current keyspace."""

    dialect = CQL_DIALECT

    @property
    def keyspace(self) -> Optional[str]:
        return self.namespace

    @keyspace.setter
    def keyspace(self, name: Optional[str]) -> None:
        self.namespace = name
