"""The one statement front end both query languages share.

SQL and CQL differ in their grammar, not in how a statement is scanned
or descended.  This module holds the shared part once: the tokenizer
loop, the statement nodes both languages have (SELECT, INSERT, UPDATE,
DELETE, TRUNCATE, DROP TABLE, USE, EXPLAIN) and a recursive-descent :class:`Parser`
that owns the token plumbing and the clauses both languages spell alike
(``IF NOT EXISTS``, WHERE with IN lists, ORDER BY, LIMIT, SET
assignments, scalar literals).  Each dialect subclasses :class:`Parser`
with its token pattern, syntax-error class and string unquoting as class
attributes, and adds or overrides only its own productions — so the
shared code never asks which language it is parsing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Pattern, Tuple

from repro.query.errors import syntax_error_message
from repro.query.expr import Placeholder


class Token(NamedTuple):
    kind: str      # IDENT | NUMBER | STRING | OP | END
    text: str
    position: int


def tokenize(text: str, pattern: Pattern, error: type, language: str) -> List[Token]:
    """Scan ``text`` into tokens, ending with a single END token.

    ``pattern`` names its alternatives: ``WS`` and ``COMMENT`` matches
    are skipped, ``QIDENT`` (a quoted identifier) becomes an IDENT
    without its quotes, and any other group is the token's kind.  Raises
    ``error`` at the first character no alternative matches.
    """
    tokens: List[Token] = []
    position = 0
    length = len(text)
    while position < length:
        match = pattern.match(text, position)
        if match is None:
            snippet = text[position:position + 20]
            raise error(
                syntax_error_message(f"cannot tokenise {language}", text, position, snippet)
            )
        kind = match.lastgroup
        position = match.end()
        if kind == "QIDENT":
            tokens.append(Token("IDENT", match.group()[1:-1], match.start()))
        elif kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, match.group(), match.start()))
    tokens.append(Token("END", "", length))
    return tokens


# ----------------------------------------------------------------------
# statement nodes both languages share
# ----------------------------------------------------------------------
class TableRef:
    """``[namespace.]table [AS alias]`` — the namespace is a database or
    a keyspace; the alias defaults to the table name."""

    __slots__ = ("namespace", "table", "alias")

    def __init__(self, namespace: Optional[str], table: str, alias: Optional[str] = None) -> None:
        self.namespace = namespace
        self.table = table
        self.alias = alias or table

    def __repr__(self) -> str:
        base = f"{self.namespace}.{self.table}" if self.namespace else self.table
        return f"{base} AS {self.alias}" if self.alias != self.table else base


class Condition:
    """One WHERE conjunct: ``column OP value`` (OP: = != < > <= >= IN
    ISNULL NOTNULL).  ``column`` is whatever the dialect's column
    production returns."""

    __slots__ = ("column", "op", "value")

    def __init__(self, column, op: str, value) -> None:
        self.column = column
        self.op = op
        self.value = value

    def __repr__(self) -> str:
        return f"{self.column!r} {self.op} {self.value!r}"


class Statement:
    """Marker base class for statements."""

    __slots__ = ()


class Select(Statement):
    __slots__ = (
        "source", "columns", "where", "order_by", "descending", "limit", "count",
        "joins", "aggregates", "group_by", "allow_filtering",
    )

    def __init__(
        self,
        source: TableRef,
        columns: List,                   # empty means * (when no aggregates)
        where: List[Condition],
        order_by=None,
        descending: bool = False,
        limit: Optional[int] = None,
        count: bool = False,
        joins: List = (),                # SQL only
        aggregates: List = (),           # SQL only
        group_by: List = (),             # SQL only
        allow_filtering: bool = False,   # CQL only
    ) -> None:
        self.source = source
        self.columns = columns
        self.where = where
        self.order_by = order_by
        self.descending = descending
        self.limit = limit
        self.count = count
        self.joins = joins
        self.aggregates = aggregates
        self.group_by = group_by
        self.allow_filtering = allow_filtering


class Insert(Statement):
    __slots__ = ("source", "columns", "rows")

    def __init__(self, source: TableRef, columns: List[str], rows: List[List]) -> None:
        self.source = source
        self.columns = columns
        self.rows = rows      # one value list per VALUES tuple


class Update(Statement):
    __slots__ = ("source", "assignments", "where")

    def __init__(
        self, source: TableRef, assignments: List[Tuple[str, object]], where: List[Condition]
    ) -> None:
        self.source = source
        self.assignments = assignments
        self.where = where


class Delete(Statement):
    __slots__ = ("source", "where")

    def __init__(self, source: TableRef, where: List[Condition]) -> None:
        self.source = source
        self.where = where


class Truncate(Statement):
    __slots__ = ("source",)

    def __init__(self, source: TableRef) -> None:
        self.source = source


class DropTable(Statement):
    __slots__ = ("source",)

    def __init__(self, source: TableRef) -> None:
        self.source = source


class Use(Statement):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class Explain(Statement):
    """``EXPLAIN [ANALYZE] SELECT ...``: report the chosen plan, one row
    per operator.

    With ``analyze`` set the statement is also *executed* and every
    operator row carries actual counters (see
    :mod:`repro.query.analyze`)."""

    __slots__ = ("select", "analyze")

    def __init__(self, select: Select, analyze: bool = False) -> None:
        self.select = select
        self.analyze = analyze


# ----------------------------------------------------------------------
# the parser core
# ----------------------------------------------------------------------
class Parser:
    """Recursive descent over one statement (a trailing ``;`` is allowed).

    A dialect subclass sets the class attributes below, implements the
    productions only it has (``_create``, ``_drop``, ``_select``) and
    overrides the hooks where its grammar extends a shared clause
    (``_source``, ``_column``, ``_comparison``, ``_value``,
    ``_value_rows``).
    """

    #: The language's name in tokenizer errors (``"SQL"`` / ``"CQL"``).
    language: str
    #: The token pattern handed to :func:`tokenize`.
    pattern: Pattern
    #: The language's syntax-error class; every parse failure raises it.
    error: type
    #: ``unquote_string(token_text) -> str`` (a staticmethod).
    unquote_string: Callable[[str], str]
    #: Comparison operators a WHERE conjunct may use, longest first.
    comparisons: Tuple[str, ...] = ("<=", ">=", "=", "<", ">")
    #: VALUES arity error, formatted with ``columns`` and ``values``.
    arity_message: str
    #: Statement keyword -> the method parsing the rest of it.
    statements: Dict[str, str] = {
        "EXPLAIN": "_explain",
        "CREATE": "_create",
        "INSERT": "_insert",
        "SELECT": "_select",
        "UPDATE": "_update",
        "DELETE": "_delete",
        "TRUNCATE": "_truncate",
        "DROP": "_drop",
        "USE": "_use",
    }

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = self.tokenize(text)
        self.position = 0
        self._n_placeholders = 0

    @classmethod
    def tokenize(cls, text: str) -> List[Token]:
        return tokenize(text, cls.pattern, cls.error, cls.language)

    @classmethod
    def parse(cls, text: str) -> Statement:
        """Parse one statement; raises the dialect's syntax error."""
        return cls(text).parse_statement()

    # -- token plumbing ------------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.position]

    def _advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "END":
            self.position += 1
        return token

    def _error(self, message: str) -> Exception:
        token = self._peek()
        return self.error(
            syntax_error_message(message, self.text, token.position, token.text)
        )

    def _accept_keyword(self, word: str) -> bool:
        token = self._peek()
        if token.kind == "IDENT" and token.text.upper() == word:
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise self._error(f"expected {word}")

    def _accept_op(self, op: str) -> bool:
        token = self._peek()
        if token.kind == "OP" and token.text == op:
            self._advance()
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            raise self._error(f"expected {op!r}")

    def _identifier(self) -> str:
        token = self._peek()
        if token.kind != "IDENT":
            raise self._error("expected an identifier")
        self._advance()
        return token.text

    def _comma_list(self, item: Callable) -> List:
        """``item [, item ...]``"""
        items = [item()]
        while self._accept_op(","):
            items.append(item())
        return items

    def _parenthesised(self, item: Callable) -> List:
        """``( item [, item ...] )``"""
        self._expect_op("(")
        items = self._comma_list(item)
        self._expect_op(")")
        return items

    # -- statements ------------------------------------------------------------
    def parse_statement(self) -> Statement:
        statement = self._statement()
        self._accept_op(";")
        if self._peek().kind != "END":
            raise self._error("trailing input after statement")
        return statement

    def _statement(self) -> Statement:
        token = self._peek()
        method = self.statements.get(token.text.upper()) if token.kind == "IDENT" else None
        if method is None:
            raise self._error("unknown statement")
        self._advance()
        return getattr(self, method)()

    def _explain(self) -> Explain:
        analyze = self._accept_keyword("ANALYZE")
        self._expect_keyword("SELECT")
        return Explain(self._select(), analyze=analyze)

    def _use(self) -> Use:
        return Use(self._identifier())

    def _truncate(self) -> Truncate:
        return Truncate(self._source())

    def _if_not_exists(self) -> bool:
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            return True
        return False

    def _table_ref(self) -> TableRef:
        first = self._identifier()
        if self._accept_op("."):
            return TableRef(first, self._identifier())
        return TableRef(None, first)

    def _source(self) -> TableRef:
        """A table a query reads (FROM, TRUNCATE); SQL adds an alias."""
        return self._table_ref()

    def _column(self):
        """A column reference; SQL allows ``qualifier.name``."""
        return self._identifier()

    def _insert(self) -> Insert:
        self._expect_keyword("INTO")
        source = self._table_ref()
        columns = self._parenthesised(self._identifier)
        self._expect_keyword("VALUES")
        return Insert(source, columns, self._value_rows(len(columns)))

    def _value_rows(self, expected: int) -> List[List]:
        """The VALUES tuples; CQL takes one, SQL a comma list."""
        return [self._value_tuple(expected)]

    def _value_tuple(self, expected: int) -> List:
        values = self._parenthesised(self._value)
        if len(values) != expected:
            raise self._error(self.arity_message.format(columns=expected, values=len(values)))
        return values

    def _update(self) -> Update:
        source = self._table_ref()
        self._expect_keyword("SET")
        assignments = self._comma_list(self._assignment)
        return Update(source, assignments, self._where_clause())

    def _assignment(self) -> Tuple[str, object]:
        column = self._identifier()
        self._expect_op("=")
        return column, self._value()

    def _delete(self) -> Delete:
        self._expect_keyword("FROM")
        source = self._table_ref()
        return Delete(source, self._where_clause())

    # -- clauses ----------------------------------------------------------------
    def _where_clause(self) -> List[Condition]:
        if not self._accept_keyword("WHERE"):
            return []
        conditions = [self._condition()]
        while self._accept_keyword("AND"):
            conditions.append(self._condition())
        return conditions

    def _condition(self) -> Condition:
        column = self._column()
        if self._accept_keyword("IN"):
            return Condition(column, "IN", self._parenthesised(self._value))
        return self._comparison(column)

    def _comparison(self, column) -> Condition:
        for op in self.comparisons:
            if self._accept_op(op):
                return Condition(column, "!=" if op == "<>" else op, self._value())
        raise self._error("expected a comparison operator")

    def _order_by(self) -> Tuple[object, bool]:
        """``ORDER BY column [ASC | DESC]`` as ``(column, descending)``;
        ``(None, False)`` when the clause is absent."""
        if not self._accept_keyword("ORDER"):
            return None, False
        self._expect_keyword("BY")
        column = self._column()
        if self._accept_keyword("DESC"):
            return column, True
        self._accept_keyword("ASC")
        return column, False

    def _limit(self) -> Optional[int]:
        """``LIMIT n`` with ``n`` a non-negative integer; None when absent."""
        if not self._accept_keyword("LIMIT"):
            return None
        token = self._peek()
        if token.kind != "NUMBER":
            raise self._error("expected a LIMIT count")
        if not token.text.isdigit():
            raise self._error("LIMIT takes a non-negative integer")
        self._advance()
        return int(token.text)

    # -- literals ----------------------------------------------------------------
    def _value(self):
        """A scalar literal: ``?``, a number, a string, TRUE, FALSE or NULL."""
        token = self._peek()
        if token.kind == "OP" and token.text == "?":
            self._advance()
            placeholder = Placeholder(self._n_placeholders)
            self._n_placeholders += 1
            return placeholder
        if token.kind == "NUMBER":
            self._advance()
            text = token.text
            if "." in text or "e" in text or "E" in text:
                return float(text)
            return int(text)
        if token.kind == "STRING":
            self._advance()
            return self.unquote_string(token.text)
        if token.kind == "IDENT" and token.text.upper() in _KEYWORD_LITERALS:
            self._advance()
            return _KEYWORD_LITERALS[token.text.upper()]
        raise self._error("expected a literal value")


_KEYWORD_LITERALS = {"TRUE": True, "FALSE": False, "NULL": None}
