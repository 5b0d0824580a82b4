"""The CQL grammar over the shared parser core.

:class:`repro.query.syntax.Parser` owns the token plumbing and the
clauses CQL shares with SQL.  This module adds what only CQL has: ``//``
comments, ``{}`` set literals, ``BEGIN ... APPLY BATCH``, ``ALLOW
FILTERING``, ``WITH COMPRESSION`` / ``DURABLE_WRITES``, ``set<...>``
types, and UPDATE/DELETE that must name their row.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.nosqldb.cql import ast
from repro.nosqldb.errors import CQLSyntaxError
from repro.query.syntax import Parser


def unquote_string(text: str) -> str:
    """Strip quotes and collapse doubled single quotes."""
    return text[1:-1].replace("''", "'")


class CQLParser(Parser):
    language = "CQL"
    pattern = re.compile(
        r"""
        (?P<WS>\s+)
      | (?P<COMMENT>--[^\n]*|//[^\n]*)
      | (?P<STRING>'(?:[^']|'')*')
      | (?P<NUMBER>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<OP><=|>=|!=|[(),.=<>*?{};\[\]:])
        """,
        re.VERBOSE,
    )
    error = CQLSyntaxError
    unquote_string = staticmethod(unquote_string)
    arity_message = "{columns} columns but {values} values"
    statements = {**Parser.statements, "BEGIN": "_batch"}

    def _batch(self) -> ast.Batch:
        """``BEGIN BATCH`` followed by ;-separated mutations, ``APPLY BATCH``."""
        self._expect_keyword("BATCH")
        statements: List[ast.Statement] = []
        while not self._accept_keyword("APPLY"):
            if self._accept_keyword("INSERT"):
                statements.append(self._insert())
            elif self._accept_keyword("UPDATE"):
                statements.append(self._update())
            elif self._accept_keyword("DELETE"):
                statements.append(self._delete())
            else:
                raise self._error("batches may contain INSERT, UPDATE or DELETE")
            self._accept_op(";")
        self._expect_keyword("BATCH")
        if not statements:
            raise self._error("empty batch")
        return ast.Batch(statements)

    # -- DDL -----------------------------------------------------------------
    def _create(self) -> ast.Statement:
        if self._accept_keyword("KEYSPACE"):
            if_not_exists = self._if_not_exists()
            name = self._identifier()
            durable = True
            if self._accept_keyword("WITH"):
                self._expect_keyword("DURABLE_WRITES")
                self._expect_op("=")
                durable = self._boolean()
            return ast.CreateKeyspace(name, if_not_exists, durable)
        if self._accept_keyword("TABLE") or self._accept_keyword("COLUMNFAMILY"):
            return self._create_table()
        if self._accept_keyword("INDEX"):
            return self._create_index()
        raise self._error("expected KEYSPACE, TABLE or INDEX")

    def _create_table(self) -> ast.CreateTable:
        if_not_exists = self._if_not_exists()
        source = self._table_ref()
        self._expect_op("(")
        columns: List[Tuple[str, str]] = []
        primary_key: Optional[str] = None
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                self._expect_op("(")
                primary_key = self._identifier()
                self._expect_op(")")
            else:
                column = self._identifier()
                type_text = self._type_text()
                if self._accept_keyword("PRIMARY"):
                    self._expect_keyword("KEY")
                    primary_key = column
                columns.append((column, type_text))
            if not self._accept_op(","):
                break
        self._expect_op(")")
        compression = True
        if self._accept_keyword("WITH"):
            self._expect_keyword("COMPRESSION")
            self._expect_op("=")
            compression = self._boolean()
        if primary_key is None:
            raise self._error("CREATE TABLE needs a PRIMARY KEY")
        return ast.CreateTable(source, columns, primary_key, if_not_exists, compression)

    def _type_text(self) -> str:
        base = self._identifier()
        if self._accept_op("<"):
            inner = self._identifier()
            self._expect_op(">")
            return f"{base}<{inner}>"
        return base

    def _create_index(self) -> ast.CreateIndex:
        if_not_exists = self._if_not_exists()
        name: Optional[str] = None
        if not self._accept_keyword("ON"):
            name = self._identifier()
            self._expect_keyword("ON")
        source = self._table_ref()
        self._expect_op("(")
        column = self._identifier()
        self._expect_op(")")
        return ast.CreateIndex(name, source, column, if_not_exists)

    def _drop(self) -> ast.Statement:
        if self._accept_keyword("TABLE"):
            return ast.DropTable(self._table_ref())
        if self._accept_keyword("KEYSPACE"):
            return ast.DropKeyspace(self._identifier())
        raise self._error("expected TABLE or KEYSPACE")

    # -- DML -----------------------------------------------------------------
    def _select(self) -> ast.Select:
        count = False
        columns: List[str] = []
        if self._accept_op("*"):
            pass
        elif self._accept_keyword("COUNT"):
            self._expect_op("(")
            self._expect_op("*")
            self._expect_op(")")
            count = True
        else:
            columns = self._comma_list(self._identifier)
        self._expect_keyword("FROM")
        source = self._source()
        where = self._where_clause()
        order_by, descending = self._order_by()
        limit = self._limit()
        allow_filtering = False
        if self._accept_keyword("ALLOW"):
            self._expect_keyword("FILTERING")
            allow_filtering = True
        return ast.Select(
            source, columns, where, order_by, descending, limit, count,
            allow_filtering=allow_filtering,
        )

    def _update(self) -> ast.Update:
        statement = super()._update()
        if not statement.where:
            raise self._error("UPDATE requires a WHERE clause")
        return statement

    def _delete(self) -> ast.Delete:
        statement = super()._delete()
        if not statement.where:
            raise self._error("DELETE requires a WHERE clause")
        return statement

    # -- literals --------------------------------------------------------------
    def _boolean(self) -> bool:
        if self._accept_keyword("TRUE"):
            return True
        if self._accept_keyword("FALSE"):
            return False
        raise self._error("expected TRUE or FALSE")

    def _value(self):
        """A scalar literal, or a ``{a, b, ...}`` set literal."""
        if not self._accept_op("{"):
            return super()._value()
        if self._accept_op("}"):
            return ast.SetLiteral(())
        items = self._comma_list(self._value)
        self._expect_op("}")
        return ast.SetLiteral(items)


parse = CQLParser.parse
tokenize = CQLParser.tokenize
