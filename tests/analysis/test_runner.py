"""CheckRunner dispatch, the REPRO_CHECK gate, and the builder/session hooks."""

import pytest

from repro.analysis.flags import checks_enabled
from repro.analysis.runner import CheckRunner, runtime_check
from repro.analysis.violations import InvariantViolationError
from repro.dwarf.builder import DwarfBuilder
from repro.sqldb.table import SQLColumn, Table
from repro.sqldb.types import parse_type
from repro.storage.btree import BTree


def make_table() -> Table:
    table = Table("t", [SQLColumn("id", parse_type("int"))], ("id",))
    table.insert({"id": 1})
    return table


class TestDispatch:
    def test_cube_dispatches_to_dwarf_check(self, sample_cube):
        report = CheckRunner().check(sample_cube)
        assert report.ok and report.n_checks > 0

    def test_btree_dispatches(self):
        tree = BTree()
        tree.insert(1)
        assert CheckRunner().check(tree).ok

    def test_sqldb_table_dispatches(self):
        assert CheckRunner().check(make_table()).ok

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            CheckRunner().check(42)

    def test_check_all_merges(self, sample_cube):
        tree = BTree()
        tree.insert(1)
        report = CheckRunner().check_all([sample_cube, tree], name="combined")
        assert report.ok
        assert report.name == "combined"


class TestGate:
    def test_disabled_values(self, monkeypatch):
        for value in ("", "0", "false", "no", "off"):
            monkeypatch.setenv("REPRO_CHECK", value)
            assert not checks_enabled()
        monkeypatch.delenv("REPRO_CHECK")
        assert not checks_enabled()

    def test_enabled_values(self, monkeypatch):
        for value in ("1", "true", "yes"):
            monkeypatch.setenv("REPRO_CHECK", value)
            assert checks_enabled()

    def test_runtime_check_is_a_noop_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        tree = BTree()
        tree.insert(1)
        tree._n_entries += 5  # corrupt — but nobody is looking
        assert runtime_check(tree) is None

    def test_runtime_check_raises_when_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        tree = BTree()
        tree.insert(1)
        tree._n_entries += 5
        with pytest.raises(InvariantViolationError) as excinfo:
            runtime_check(tree, label="unit")
        assert excinfo.value.violations

    def test_runtime_check_passes_clean_targets(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        report = runtime_check(make_table())
        assert report is not None and report.ok


class TestHooks:
    def test_builder_hook_accepts_clean_build(self, sample_facts, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        cube = DwarfBuilder(sample_facts.schema).build(sample_facts)
        assert cube.n_source_tuples == 4

    def test_session_hook_accepts_clean_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        from repro.sqldb.engine import SQLEngine
        session = SQLEngine().connect()
        session.execute("CREATE DATABASE d")
        session.execute("USE d")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        insert = session.prepare("INSERT INTO t (id, v) VALUES (?, ?)")
        assert session.execute_many(insert, [(i, i * 2) for i in range(20)]) == 20

    def test_session_hook_raises_on_corruption(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        from repro.sqldb.engine import SQLEngine
        session = SQLEngine().connect()
        session.execute("CREATE DATABASE d")
        session.execute("USE d")
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        insert = session.prepare("INSERT INTO t (id, v) VALUES (?, ?)")
        table = session.engine.database("d").table("t")
        table._clustered.insert(99, b"\xff\xffgarbage")
        with pytest.raises(InvariantViolationError):
            session.execute_many(insert, [(1, 2)])
