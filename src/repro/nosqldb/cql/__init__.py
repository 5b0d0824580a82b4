"""A CQL subset: enough of the Cassandra Query Language to drive the paper.

Supported statements: CREATE KEYSPACE / TABLE / INDEX, DROP, USE,
INSERT, SELECT (point, index, filtered and full scans, COUNT(*)),
UPDATE, DELETE, TRUNCATE — with positional ``?`` bind markers for
prepared statements.
"""

from repro.nosqldb.cql.parser import parse

__all__ = ["parse"]
