"""CQL lexer and parser."""

import pytest

from repro.nosqldb.cql import ast
from repro.nosqldb.cql.parser import parse, tokenize, unquote_string
from repro.nosqldb.errors import CQLSyntaxError


class TestLexer:
    def test_token_kinds(self):
        kinds = [t.kind for t in tokenize("SELECT * FROM t WHERE id = 3")]
        assert kinds == ["IDENT", "OP", "IDENT", "IDENT", "IDENT", "IDENT", "OP", "NUMBER", "END"]

    def test_string_with_escaped_quote(self):
        token = tokenize("'O''Connell St'")[0]
        assert unquote_string(token.text) == "O'Connell St"

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- comment\n1")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "1"]

    def test_bad_character(self):
        with pytest.raises(CQLSyntaxError):
            tokenize("SELECT @")

    def test_numbers(self):
        assert tokenize("-5")[0].text == "-5"
        assert tokenize("3.25")[0].kind == "NUMBER"


class TestCreateStatements:
    def test_create_keyspace(self):
        stmt = parse("CREATE KEYSPACE dwarf_warehouse")
        assert isinstance(stmt, ast.CreateKeyspace)
        assert stmt.name == "dwarf_warehouse"
        assert not stmt.if_not_exists

    def test_create_keyspace_if_not_exists(self):
        stmt = parse("CREATE KEYSPACE IF NOT EXISTS k WITH DURABLE_WRITES = false")
        assert stmt.if_not_exists
        assert stmt.durable_writes is False

    def test_create_table_with_pk_clause(self):
        stmt = parse(
            "CREATE TABLE dwarf_cell (id int, key text, leaf boolean, PRIMARY KEY (id))"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.primary_key == "id"
        assert stmt.columns == [("id", "int"), ("key", "text"), ("leaf", "boolean")]

    def test_create_table_inline_pk(self):
        stmt = parse("CREATE TABLE t (id int PRIMARY KEY, x set<int>)")
        assert stmt.primary_key == "id"
        assert stmt.columns[1] == ("x", "set<int>")

    def test_create_table_without_pk_rejected(self):
        with pytest.raises(CQLSyntaxError):
            parse("CREATE TABLE t (id int)")

    def test_create_index(self):
        stmt = parse("CREATE INDEX my_idx ON cells (parentNodeId)")
        assert isinstance(stmt, ast.CreateIndex)
        assert stmt.name == "my_idx"
        assert stmt.column == "parentNodeId"

    def test_create_index_anonymous(self):
        stmt = parse("CREATE INDEX ON cells (x)")
        assert stmt.name is None

    def test_create_index_if_not_exists(self):
        stmt = parse("CREATE INDEX IF NOT EXISTS ON cells (x)")
        assert stmt.if_not_exists


class TestInsert:
    def test_basic_insert(self):
        stmt = parse("INSERT INTO ks.cells (id, key) VALUES (3, 'Fenian St')")
        assert isinstance(stmt, ast.Insert)
        assert stmt.source.namespace == "ks"
        assert stmt.columns == ["id", "key"]
        assert stmt.rows[0] == [3, "Fenian St"]

    def test_fig3_insert_parses(self):
        stmt = parse(
            "INSERT INTO DWARF_CELL (id,key,measure,parentNode,"
            "pointerNode,leaf, schema_id, dimension_table_name) "
            "VALUES (3,'Fenian St', 3,3,null,true,1,'Station');"
        )
        assert stmt.rows[0] == [3, "Fenian St", 3, 3, None, True, 1, "Station"]

    def test_set_literal(self):
        stmt = parse("INSERT INTO t (id, kids) VALUES (1, {4, 5, 6})")
        assert isinstance(stmt.rows[0][1], ast.SetLiteral)
        assert stmt.rows[0][1].items == (4, 5, 6)

    def test_empty_set_literal(self):
        stmt = parse("INSERT INTO t (id, kids) VALUES (1, {})")
        assert stmt.rows[0][1].items == ()

    def test_placeholders_numbered_in_order(self):
        stmt = parse("INSERT INTO t (a, b, c) VALUES (?, 5, ?)")
        assert stmt.rows[0][0].index == 0
        assert stmt.rows[0][2].index == 1

    def test_arity_mismatch(self):
        with pytest.raises(CQLSyntaxError):
            parse("INSERT INTO t (a, b) VALUES (1)")


class TestSelect:
    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert stmt.columns == []
        assert not stmt.count

    def test_column_list(self):
        stmt = parse("SELECT a, b FROM t")
        assert stmt.columns == ["a", "b"]

    def test_count(self):
        assert parse("SELECT COUNT(*) FROM t").count

    def test_where_conjunction(self):
        stmt = parse("SELECT * FROM t WHERE a = 1 AND b >= 'x' ALLOW FILTERING")
        assert [(c.column, c.op) for c in stmt.where] == [("a", "="), ("b", ">=")]
        assert stmt.allow_filtering

    def test_where_in(self):
        stmt = parse("SELECT * FROM t WHERE id IN (1, 2, 3)")
        assert stmt.where[0].op == "IN"
        assert stmt.where[0].value == [1, 2, 3]

    def test_limit(self):
        assert parse("SELECT * FROM t LIMIT 10").limit == 10


class TestOtherStatements:
    def test_update(self):
        stmt = parse("UPDATE t SET size_as_mb = 9 WHERE id = 1")
        assert isinstance(stmt, ast.Update)
        assert stmt.assignments == [("size_as_mb", 9)]

    def test_update_requires_where(self):
        with pytest.raises(CQLSyntaxError):
            parse("UPDATE t SET a = 1")

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE id = 4")
        assert isinstance(stmt, ast.Delete)

    def test_truncate(self):
        assert isinstance(parse("TRUNCATE ks.t"), ast.Truncate)

    def test_drop_table_and_keyspace(self):
        assert isinstance(parse("DROP TABLE t"), ast.DropTable)
        assert isinstance(parse("DROP KEYSPACE k"), ast.DropKeyspace)

    def test_use(self):
        assert parse("USE dwarf_warehouse").name == "dwarf_warehouse"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(CQLSyntaxError, match="trailing"):
            parse("USE k extra")

    def test_unknown_statement(self):
        with pytest.raises(CQLSyntaxError):
            parse("GRANT ALL")

    def test_keywords_case_insensitive(self):
        stmt = parse("select * from t where id = 1")
        assert isinstance(stmt, ast.Select)
