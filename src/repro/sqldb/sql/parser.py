"""The SQL grammar (MySQL-flavoured) over the shared parser core.

:class:`repro.query.syntax.Parser` owns the token plumbing and the
clauses SQL shares with CQL.  This module adds what only SQL has:
backtick identifiers, ``#`` and ``/* */`` comments, ``<>``, ``IS [NOT]
NULL``, qualified column references, table aliases, JOINs, multi-row
VALUES, GROUP BY and aggregates, composite primary keys, ``NOT NULL``,
``VARCHAR(n)`` and MySQL table options.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.query.syntax import Parser
from repro.sqldb.errors import SQLSyntaxError
from repro.sqldb.sql import ast

_RESERVED = {
    "SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
    "DELETE", "CREATE", "DROP", "TABLE", "DATABASE", "INDEX", "PRIMARY",
    "KEY", "NOT", "NULL", "AND", "JOIN", "INNER", "ON", "AS", "ORDER",
    "BY", "LIMIT", "USE", "TRUNCATE", "IN", "IS", "COUNT", "ASC", "DESC",
    "GROUP", "SUM", "MIN", "MAX", "AVG",
}

_AGGREGATE_FUNCS = ("COUNT", "SUM", "MIN", "MAX", "AVG")


def unquote_string(text: str) -> str:
    quote = text[0]
    body = text[1:-1]
    if quote == "'":
        body = body.replace("''", "'")
    return body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")


class SQLParser(Parser):
    language = "SQL"
    pattern = re.compile(
        r"""
        (?P<WS>\s+)
      | (?P<COMMENT>--[^\n]*|\#[^\n]*|/\*.*?\*/)
      | (?P<STRING>'(?:[^'\\]|\\.|'')*'|"(?:[^"\\]|\\.)*")
      | (?P<NUMBER>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<QIDENT>`[^`]+`)
      | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<OP><=|>=|<>|!=|[(),.=<>*?;])
        """,
        re.VERBOSE | re.DOTALL,
    )
    error = SQLSyntaxError
    unquote_string = staticmethod(unquote_string)
    comparisons = ("<=", ">=", "<>", "!=", "=", "<", ">")
    arity_message = "expected {columns} values, got {values}"

    # -- DDL ----------------------------------------------------------------------
    def _create(self) -> ast.Statement:
        if self._accept_keyword("DATABASE") or self._accept_keyword("SCHEMA"):
            if_not_exists = self._if_not_exists()
            return ast.CreateDatabase(self._identifier(), if_not_exists)
        if self._accept_keyword("TABLE"):
            return self._create_table()
        if self._accept_keyword("INDEX"):
            name = self._identifier()
            self._expect_keyword("ON")
            source = self._table_ref()
            self._expect_op("(")
            column = self._identifier()
            self._expect_op(")")
            return ast.CreateIndex(name, source, column)
        raise self._error("expected DATABASE, TABLE or INDEX")

    def _create_table(self) -> ast.CreateTable:
        if_not_exists = self._if_not_exists()
        source = self._table_ref()
        self._expect_op("(")
        columns: List[Tuple[str, str, bool]] = []
        primary_key: List[str] = []
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary_key.extend(self._parenthesised(self._identifier))
            else:
                name = self._identifier()
                type_text = self._type_text()
                not_null = False
                while True:
                    if self._accept_keyword("NOT"):
                        self._expect_keyword("NULL")
                        not_null = True
                        continue
                    if self._accept_keyword("PRIMARY"):
                        self._expect_keyword("KEY")
                        primary_key.append(name)
                        continue
                    break
                columns.append((name, type_text, not_null))
            if not self._accept_op(","):
                break
        self._expect_op(")")
        # tolerate MySQL table options: ENGINE=INNODB etc.
        while self._peek().kind == "IDENT":
            self._identifier()
            if self._accept_op("="):
                self._advance()
        if not primary_key:
            raise self._error("CREATE TABLE needs a PRIMARY KEY")
        return ast.CreateTable(source, columns, primary_key, if_not_exists)

    def _type_text(self) -> str:
        base = self._identifier()
        if self._accept_op("("):
            token = self._peek()
            if token.kind != "NUMBER":
                raise self._error("expected a type width")
            self._advance()
            self._expect_op(")")
            return f"{base}({token.text})"
        return base

    def _drop(self) -> ast.Statement:
        if self._accept_keyword("TABLE"):
            return ast.DropTable(self._table_ref())
        if self._accept_keyword("DATABASE"):
            return ast.DropDatabase(self._identifier())
        raise self._error("expected TABLE or DATABASE")

    def _truncate(self) -> ast.Truncate:
        self._accept_keyword("TABLE")
        return super()._truncate()

    # -- sources and columns ---------------------------------------------------------
    def _source(self) -> ast.TableRef:
        source = self._table_ref()
        if self._accept_keyword("AS"):
            source.alias = self._identifier()
        else:
            token = self._peek()
            if token.kind == "IDENT" and token.text.upper() not in _RESERVED:
                source.alias = self._identifier()
        return source

    def _column(self) -> ast.ColumnRef:
        first = self._identifier()
        if self._accept_op("."):
            return ast.ColumnRef(first, self._identifier())
        return ast.ColumnRef(None, first)

    # -- DML --------------------------------------------------------------------------
    def _value_rows(self, expected: int) -> List[List]:
        return self._comma_list(lambda: self._value_tuple(expected))

    def _select(self) -> ast.Select:
        count = False
        columns: List[ast.ColumnRef] = []
        aggregates: List[ast.Aggregate] = []
        if not self._accept_op("*"):
            self._select_item(columns, aggregates)
            while self._accept_op(","):
                self._select_item(columns, aggregates)
            if (
                len(aggregates) == 1
                and not columns
                and aggregates[0].func == "count"
                and aggregates[0].column is None
            ):
                # plain SELECT COUNT(*) keeps its dedicated fast path
                count = True
                aggregates = []
        self._expect_keyword("FROM")
        source = self._source()
        joins: List[ast.Join] = []
        while True:
            if self._accept_keyword("INNER"):
                self._expect_keyword("JOIN")
            elif not self._accept_keyword("JOIN"):
                break
            join_source = self._source()
            self._expect_keyword("ON")
            left = self._column()
            self._expect_op("=")
            joins.append(ast.Join(join_source, left, self._column()))
        where = self._where_clause()
        group_by: List[ast.ColumnRef] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = self._comma_list(self._column)
        order_by, descending = self._order_by()
        limit = self._limit()
        if group_by and not aggregates:
            raise self._error("GROUP BY requires at least one aggregate select item")
        return ast.Select(
            source, columns, where, order_by, descending, limit, count,
            joins=joins, aggregates=aggregates, group_by=group_by,
        )

    def _select_item(self, columns: List[ast.ColumnRef], aggregates: List[ast.Aggregate]) -> None:
        token = self._peek()
        if token.kind == "IDENT" and token.text.upper() in _AGGREGATE_FUNCS:
            after = self.tokens[self.position + 1]
            if after.kind == "OP" and after.text == "(":
                func = token.text.lower()
                self._advance()
                self._expect_op("(")
                if self._accept_op("*"):
                    if func != "count":
                        raise self._error(f"{func.upper()}(*) is not valid")
                    column = None
                else:
                    column = self._column()
                self._expect_op(")")
                aggregates.append(ast.Aggregate(func, column))
                return
        columns.append(self._column())

    def _comparison(self, column: ast.ColumnRef) -> ast.Condition:
        if self._accept_keyword("IS"):
            negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.Condition(column, "NOTNULL" if negated else "ISNULL", None)
        return super()._comparison(column)


parse = SQLParser.parse
tokenize = SQLParser.tokenize
