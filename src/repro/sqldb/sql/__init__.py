"""A SQL subset: the slice of MySQL the paper's comparison schemas need.

CREATE DATABASE / TABLE / INDEX, USE, DROP, TRUNCATE, multi-row INSERT,
SELECT with inner equi-joins / WHERE / ORDER BY / LIMIT / COUNT(*),
UPDATE and DELETE — with positional ``?`` bind markers.
"""

from repro.sqldb.sql.parser import parse

__all__ = ["parse"]
