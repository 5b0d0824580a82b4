"""On-disk SSTables: data files written, read back, cleaned by compaction."""

import pytest

from repro.nosqldb.columnfamily import Column
from repro.nosqldb.engine import NoSQLEngine
from repro.nosqldb.types import parse_type
from tests.conftest import scan_rows


@pytest.fixture
def disk_table(tmp_path):
    engine = NoSQLEngine(data_dir=tmp_path)
    ks = engine.create_keyspace("ks")
    table = ks.create_table(
        "cells",
        [Column("id", parse_type("int")), Column("v", parse_type("text"))],
        "id",
    )
    return tmp_path, table


class TestDiskSSTables:
    def test_flush_writes_data_file(self, disk_table):
        root, table = disk_table
        for i in range(100):
            table.insert({"id": i, "v": f"row{i}"})
        table.flush()
        files = list((root / "ks" / "cells").glob("*-Data.db"))
        assert len(files) == 1
        assert files[0].stat().st_size > 0

    def test_reads_come_from_disk(self, disk_table):
        root, table = disk_table
        for i in range(200):
            table.insert({"id": i, "v": f"row{i}"})
        table.flush()
        assert table.get(150)["v"] == "row150"
        assert table.get(9999) is None
        assert len(scan_rows(table)) == 200

    def test_size_matches_files(self, disk_table):
        root, table = disk_table
        for i in range(300):
            table.insert({"id": i, "v": "x" * 40})
        table.flush()
        on_disk = sum(f.stat().st_size for f in (root / "ks" / "cells").glob("*-Data.db"))
        # size_bytes = data files + index + bloom + fixed overhead
        assert table.size_bytes >= on_disk
        assert on_disk > 0

    def test_compaction_removes_old_generations(self, disk_table):
        root, table = disk_table
        for generation in range(5):
            table.insert({"id": generation, "v": "x"})
            table.flush()
        files = list((root / "ks" / "cells").glob("*-Data.db"))
        assert len(files) < 5  # compaction merged and deleted old files
        assert len(scan_rows(table)) == 5

    def test_files_are_named_table_generation_data(self, disk_table):
        root, table = disk_table
        table.insert({"id": 1, "v": "x"})
        table.flush()
        table.insert({"id": 2, "v": "y"})
        table.compact()
        names = sorted(p.name for p in (root / "ks" / "cells").glob("*.db"))
        assert names == ["cells-3-Data.db"]  # two flushes, then the compaction

    def test_truncate_deletes_files(self, disk_table):
        root, table = disk_table
        table.insert({"id": 1, "v": "x"})
        table.flush()
        table.truncate()
        assert list((root / "ks" / "cells").glob("*-Data.db")) == []

    def test_mapper_on_disk_engine(self, tmp_path, sample_cube):
        from repro.mapping.nosql_dwarf import NoSQLDwarfMapper

        engine = NoSQLEngine(data_dir=tmp_path)
        mapper = NoSQLDwarfMapper(engine)
        mapper.install()
        schema_id = mapper.store(sample_cube)
        data_files = list(tmp_path.rglob("*-Data.db"))
        assert data_files  # the probe flushed everything to disk
        rebuilt = mapper.load(schema_id)
        assert rebuilt.total() == sample_cube.total()
