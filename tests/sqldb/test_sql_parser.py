"""SQL lexer and parser."""

import pytest

from repro.sqldb.errors import SQLSyntaxError
from repro.sqldb.sql import ast
from repro.sqldb.sql.parser import parse, tokenize, unquote_string


class TestLexer:
    def test_backtick_identifiers(self):
        tokens = tokenize("SELECT `weird name` FROM t")
        assert tokens[1].kind == "IDENT"
        assert tokens[1].text == "weird name"

    def test_hash_comment(self):
        assert [t.text for t in tokenize("1 # comment\n2")[:-1]] == ["1", "2"]

    def test_block_comment(self):
        assert [t.text for t in tokenize("1 /* x\ny */ 2")[:-1]] == ["1", "2"]

    def test_double_quoted_string(self):
        assert unquote_string(tokenize('"it\'s"')[0].text) == "it's"

    def test_bad_char(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT $$$")


class TestCreate:
    def test_create_database(self):
        stmt = parse("CREATE DATABASE dwarf")
        assert isinstance(stmt, ast.CreateDatabase)

    def test_create_table_fig4_style(self):
        stmt = parse(
            "CREATE TABLE NODE_CHILDREN (node_id INT, cell_id INT, "
            "PRIMARY KEY (node_id, cell_id)) ENGINE=INNODB"
        )
        assert stmt.primary_key == ["node_id", "cell_id"]

    def test_inline_pk_and_not_null(self):
        stmt = parse("CREATE TABLE t (id INT NOT NULL PRIMARY KEY, v VARCHAR(32))")
        assert stmt.primary_key == ["id"]
        assert stmt.columns[0] == ("id", "INT", True)
        assert stmt.columns[1] == ("v", "VARCHAR(32)", False)

    def test_pk_required(self):
        with pytest.raises(SQLSyntaxError):
            parse("CREATE TABLE t (id INT)")

    def test_create_index(self):
        stmt = parse("CREATE INDEX m_idx ON cell (measure)")
        assert isinstance(stmt, ast.CreateIndex)
        assert stmt.column == "measure"


class TestInsert:
    def test_multi_row_values(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        assert len(stmt.rows) == 3
        assert stmt.rows[1] == [2, "y"]

    def test_placeholders(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (?, ?)")
        assert stmt.rows[0][0].index == 0
        assert stmt.rows[0][1].index == 1

    def test_arity_checked(self):
        with pytest.raises(SQLSyntaxError):
            parse("INSERT INTO t (a, b) VALUES (1)")


class TestSelect:
    def test_join_clause(self):
        stmt = parse(
            "SELECT c.id FROM NODE_CHILDREN nc "
            "JOIN CELL c ON nc.cell_id = c.id WHERE nc.node_id = 5"
        )
        assert len(stmt.joins) == 1
        join = stmt.joins[0]
        assert join.source.alias == "c"
        assert str(join.left) == "nc.cell_id"

    def test_inner_join_keyword(self):
        stmt = parse("SELECT * FROM a INNER JOIN b ON a.x = b.y")
        assert len(stmt.joins) == 1

    def test_alias_with_as(self):
        stmt = parse("SELECT * FROM CELL AS c")
        assert stmt.source.alias == "c"

    def test_order_by_desc_limit(self):
        stmt = parse("SELECT * FROM t ORDER BY m DESC LIMIT 5")
        assert stmt.order_by.name == "m"
        assert stmt.descending
        assert stmt.limit == 5

    def test_count_star(self):
        assert parse("SELECT COUNT(*) FROM t").count

    def test_is_null_conditions(self):
        stmt = parse("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL")
        assert [c.op for c in stmt.where] == ["ISNULL", "NOTNULL"]

    def test_in_condition(self):
        stmt = parse("SELECT * FROM t WHERE id IN (1, 2)")
        assert stmt.where[0].op == "IN"

    def test_inequality_normalised(self):
        assert parse("SELECT * FROM t WHERE a <> 1").where[0].op == "!="

    def test_qualified_database_table(self):
        stmt = parse("SELECT * FROM dwarf.CELL")
        assert stmt.source.namespace == "dwarf"
        assert stmt.source.table == "CELL"


class TestOtherStatements:
    def test_update(self):
        stmt = parse("UPDATE t SET a = 1, b = 'x' WHERE id = 9")
        assert stmt.assignments == [("a", 1), ("b", "x")]

    def test_delete_without_where_allowed(self):
        stmt = parse("DELETE FROM t")
        assert stmt.where == []

    def test_truncate_with_optional_table_keyword(self):
        assert isinstance(parse("TRUNCATE TABLE t"), ast.Truncate)
        assert isinstance(parse("TRUNCATE t"), ast.Truncate)

    def test_use(self):
        assert parse("USE dwarf").name == "dwarf"

    def test_drop(self):
        assert isinstance(parse("DROP TABLE t"), ast.DropTable)
        assert isinstance(parse("DROP DATABASE d"), ast.DropDatabase)

    def test_trailing_garbage(self):
        with pytest.raises(SQLSyntaxError):
            parse("USE d; SELECT 1")
