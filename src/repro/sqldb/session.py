"""SQL sessions: the client surface of the relational engine.

The session itself is the shared :class:`repro.query.Session` (a
DB-API-ish driver: ``execute``, ``prepare`` + ``execute_prepared``, and
``execute_many`` for bulk loads); this module only declares the SQL
dialect it runs.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.flags import check_tables
from repro.query import Dialect, PreparedStatement, Session
from repro.sqldb.sql.executor import SQLExecutor
from repro.sqldb.sql.parser import parse

SQLPreparedStatement = PreparedStatement


def _tables(engine, database: Optional[str]):
    if database is None or not engine.has_database(database):
        return ()
    return engine.database(database).tables


SQL_DIALECT = Dialect(
    label="sql",
    parse=parse,
    executor=SQLExecutor,
    tables=_tables,
    check=check_tables,
)


class SQLSession(Session):
    """A connection to the SQL engine with an optional current database."""

    dialect = SQL_DIALECT

    @property
    def database(self) -> Optional[str]:
        return self.namespace

    @database.setter
    def database(self, name: Optional[str]) -> None:
        self.namespace = name
