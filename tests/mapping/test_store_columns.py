"""``CubeMapper.store`` moves columns, not records.

One breadth-first pass (``cube_columns``) emits per-role columns; each
table's INSERT batch is selected from them by role and reaches the
engine as one :class:`~repro.query.Columns` batch.  ``transform_cube``
is only a record view over that pass.  Pinned here: no record is built
on the store path of any schema, the record view agrees with the
columns, NoSQL-DWARF's fresh ids never pay the liveness probe, and
NoSQL-Min keeps its read-before-write per indexed row — the cost behind
its Table 5 insertion times.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.dwarf_check import structural_signature
from repro.mapping import base
from repro.mapping.base import CellRecord, NodeRecord, cube_columns, transform_cube
from repro.mapping.registry import MAPPER_FACTORIES, make_mapper
from repro.nosqldb.columnfamily import ColumnFamily
from repro.query import Columns, Session

MAPPER_NAMES = list(MAPPER_FACTORIES)


def _refuse(*_args, **_kwargs):
    raise AssertionError("the store path built a transformation record")


@pytest.mark.parametrize("name", MAPPER_NAMES)
def test_store_builds_no_records(name, bike_bundle, monkeypatch):
    cube = bike_bundle[2]
    mapper = make_mapper(name)
    batches = []
    real = Session.execute_many

    def spying(session, prepared, rows):
        batches.append(rows)
        return real(session, prepared, rows)

    monkeypatch.setattr(Session, "execute_many", spying)
    monkeypatch.setattr(base, "CellRecord", _refuse)
    monkeypatch.setattr(base, "NodeRecord", _refuse)
    schema_id = mapper.store(cube)
    monkeypatch.undo()
    assert batches and all(isinstance(batch, Columns) for batch in batches)
    assert structural_signature(mapper.load(schema_id)) == structural_signature(cube)


def test_records_are_a_view_of_the_columns(sample_cube):
    flat = cube_columns(sample_cube, first_node_id=7, first_cell_id=40)
    records = transform_cube(sample_cube, first_node_id=7, first_cell_id=40)
    assert records.entry_node_id == flat.entry_node_id == 7
    for kind, rows in ((NodeRecord, records.nodes), (CellRecord, records.cells)):
        columns = flat.nodes if kind is NodeRecord else flat.cells
        for field in kind._fields:
            view = [getattr(row, field) for row in rows]
            assert view == [
                tuple(v) if isinstance(v, list) else v for v in columns[field]
            ], field
    # ids are positional: BFS visit order
    assert [n.node_id for n in records.nodes] == list(range(7, 7 + len(records.nodes)))
    assert [c.cell_id for c in records.cells] == list(range(40, 40 + len(records.cells)))


def test_member_texts_keep_types_apart():
    """A dict memo keyed by member would conflate 1 with True and 0.0
    with -0.0; the column pass encodes those afresh."""
    from repro.core.schema import CubeSchema
    from repro.dwarf.builder import build_cube

    for first, second in ((1, True), (0.0, -0.0), (1, "1")):
        cube = build_cube([(first, second, 1)], CubeSchema("m", ["a", "b"]))
        texts = set(cube_columns(cube).cells["key_text"])
        assert {base.encode_member(first), base.encode_member(second)} <= texts
        assert len({base.encode_member(first), base.encode_member(second)}) == 2


def _counting_reads(monkeypatch):
    """Per table, the keys whose stored rows the layered walk reads."""
    calls = Counter()
    real = ColumnFamily._locate

    def counted(table, keys):
        calls[table.name] += len(keys)
        return real(table, keys)

    monkeypatch.setattr(ColumnFamily, "_locate", counted)
    return calls


def test_nosql_min_reads_before_every_indexed_write(bike_bundle, monkeypatch):
    """NoSQL-Min's two secondary indexes make every cell INSERT a
    read-before-write (paper §5.1, Table 5): one key read per row of
    the indexed table, none elsewhere."""
    cube = bike_bundle[2]
    mapper = make_mapper("NoSQL-Min")
    reads = _counting_reads(monkeypatch)
    mapper.store(cube, probe_size=False)
    mapper.store(cube, probe_size=False)
    assert reads == {"dwarf_cell": 2 * cube.stats.cell_count}


def test_nosql_dwarf_fresh_ids_skip_the_liveness_probe(bike_bundle, monkeypatch):
    """Ids the mapper allocates lie above every stored id, so every
    batch of a NoSQL-DWARF store proves its keys new."""
    cube = bike_bundle[2]
    mapper = make_mapper("NoSQL-DWARF")
    probes = _counting_reads(monkeypatch)
    first = mapper.store(cube, probe_size=False)
    for table in mapper.space().tables:
        table.flush()
    second = mapper.store(cube, probe_size=False)
    assert probes == Counter()
    monkeypatch.undo()
    cells = mapper.table("dwarf_cell")
    assert len(cells) == 2 * cube.stats.cell_count
    assert structural_signature(mapper.load(second)) == structural_signature(mapper.load(first))
