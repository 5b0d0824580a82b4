"""Errors raised by the columnar NoSQL engine."""

from __future__ import annotations

from repro.core.errors import ReproError


class NoSQLError(ReproError):
    """Base class for NoSQL engine errors."""


class CQLSyntaxError(NoSQLError):
    """The CQL text could not be tokenised or parsed."""


class InvalidRequest(NoSQLError):
    """A well-formed statement is invalid against the current schema.

    Mirrors Cassandra's ``InvalidRequest`` (unknown table, type mismatch,
    filtering without an index, ...).
    """


class AlreadyExists(NoSQLError):
    """CREATE of a keyspace/table/index that already exists."""


class CorruptBlock(NoSQLError):
    """A stored SSTable block carries a format tag other than the
    columnar ``'C'``: its bytes are not a block this engine wrote."""
