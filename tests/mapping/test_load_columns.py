"""Differential: the column-wise ``load`` against the record path it
replaced, frozen here as an oracle.

Before ``load`` read columns, it ran ``SELECT *`` over every table of
the cube, copied each row into a ``CellRecord`` (joining link-table
roles in by cell id), derived node levels by a BFS over the cells,
regrouped them into ``NodeRecord``s and rebuilt one ``DwarfNode`` per
node record.  :func:`oracle_load` keeps exactly that in plain Python.
Hypothesis stores random cubes under all four schemas — beside a
co-resident second cube, flushed or still in NoSQL memtables, plus a
:class:`CubeMaintainer` with a live delta — and every
cube must reload with the oracle's ``structural_signature`` and answer
``value()`` like it on every member/ALL vector.

Two more guards pin what the new read does not do: build a row dict
(any of the four schemas), and on NoSQL-DWARF decode a ``set<int>``
value or parse a column chunk it does not name.
"""

from __future__ import annotations

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.dwarf_check import structural_signature
from repro.core.aggregators import Aggregator
from repro.core.schema import CubeSchema, Dimension
from repro.core.tuples import member_sort_key
from repro.dwarf.builder import DwarfBuilder, build_cube
from repro.dwarf.cell import ALL, DwarfCell
from repro.dwarf.cube import DwarfCube
from repro.dwarf.node import DwarfNode
from repro.mapping.base import (
    ALL_KEY_TEXT,
    CellRecord,
    NodeRecord,
    decode_member,
    kernel_plan,
    scan_kernel,
)
from repro.mapping.incremental import CubeMaintainer
from repro.mapping.registry import MAPPER_FACTORIES
from repro.nosqldb.columnar import ColumnVectors
from repro.nosqldb.types import SetType
from repro.query.batch import Batch, RowBatch, VectorBatch


MAPPER_NAMES = list(MAPPER_FACTORIES)


# ----------------------------------------------------------------------
# the oracle: the deleted record path
# ----------------------------------------------------------------------
def _select(mapper, table, schema_id):
    return list(mapper.session.execute(
        f"SELECT * FROM {table.name} WHERE {table.column('schema_id')} = ?"
        + mapper.mapping.backend.filtering, (schema_id,),
    ))


def oracle_load(mapper, schema_id: int) -> DwarfCube:
    """``mapper.load(schema_id)`` as the record path computed it."""
    mapping, session = mapper.mapping, mapper.session
    registry = session.execute(
        f"SELECT * FROM {mapping.registry.name} WHERE id = ?", (schema_id,)
    ).one()
    dimensions = sorted(_select(mapper, mapping.dimensions, schema_id),
                        key=lambda row: row["position"])
    schema = CubeSchema(
        dimensions[0]["schema_name"],
        [Dimension(row["name"], dimension_table=row["dimension_table"]) for row in dimensions],
        measure=dimensions[0]["measure"],
        aggregator=Aggregator.get(dimensions[0]["aggregator"]),
    )

    rows = _select(mapper, mapping.cells, schema_id)
    ids = [row[mapping.cells.column("cell_id")] for row in rows]

    def field(role):
        name = mapping.cells.column(role)
        if name is not None:
            return [row[name] for row in rows]
        link = mapping.link(role)
        if link is not None:
            edges = {row[link.column("cell_id")]: row[link.column(role)]
                     for row in session.execute(f"SELECT * FROM {link.name}")}
            return [edges.get(cell_id) for cell_id in ids]
        return [{"is_root_cell": False, "level": 0}.get(role)] * len(rows)

    cells = list(map(CellRecord, *(field(role) for role in CellRecord._fields)))
    entry = registry.get("entry_node_id") if mapping.registry.column("entry_node_id") else None
    if entry is None:
        entry = next(cell.parent_node_id for cell in cells if cell.is_root_cell)
    if mapping.nodes is None:
        node_ids = list(dict.fromkeys(cell.parent_node_id for cell in cells))
    else:
        key = mapping.nodes.column("node_id")
        node_ids = [row[key] for row in _select(mapper, mapping.nodes, schema_id)]

    children = {}
    for cell in cells:
        if cell.pointer_node_id is not None:
            children.setdefault(cell.parent_node_id, []).append(cell.pointer_node_id)
    levels, queue = {entry: 0}, [entry]
    for node_id in queue:
        for child in children.get(node_id, ()):
            if child not in levels:
                levels[child] = levels[node_id] + 1
                queue.append(child)
    nodes = [NodeRecord(node_id, levels.get(node_id, 0), node_id == entry, (), ())
             for node_id in node_ids]

    objects = {record.node_id: DwarfNode(record.level) for record in nodes}
    by_parent = {}
    for cell in cells:
        by_parent.setdefault(cell.parent_node_id, []).append(cell)

    def build(key, record):
        if record.is_leaf:
            return DwarfCell(key, value=record.measure)
        return DwarfCell(key, node=objects[record.pointer_node_id])

    for record in nodes:
        node = objects[record.node_id]
        members, all_record = [], None
        for cell in by_parent.get(record.node_id, ()):
            if cell.key_text == ALL_KEY_TEXT:
                all_record = cell
            else:
                members.append((decode_member(cell.key_text), cell))
        members.sort(key=lambda pair: member_sort_key(pair[0]))
        for key, cell in members:
            node.add_cell(build(key, cell))
        if all_record is not None:
            node.all_cell = build(ALL, all_record)
    return DwarfCube(schema, objects[entry])


# ----------------------------------------------------------------------
# the differential
# ----------------------------------------------------------------------
def _fresh(name):
    mapper = MAPPER_FACTORIES[name]()
    mapper.install()
    return mapper


def _tables(mapper):
    return mapper.session.dialect.tables(mapper.engine, mapper.session.namespace)


def _flush(mapper) -> None:
    """Flush every memtable (NoSQL) or checkpoint the redo log (SQL)."""
    if _nosql(mapper):
        for table in _tables(mapper):
            table.flush()
    else:
        mapper.mapping.backend.settle(mapper.space())


def _nosql(mapper) -> bool:
    return mapper.mapping.backend.label == "cql"


def _vectors(cube):
    axes = [list(cube.members(name)) + [ALL] for name in cube.schema.dimension_names]
    return list(itertools.product(*axes))


@st.composite
def _cases(draw):
    n_dims = draw(st.integers(min_value=2, max_value=3))
    kinds = [draw(st.sampled_from(["str", "int", "float", "bool"])) for _ in range(n_dims)]
    pools = {
        "str": st.sampled_from(["a", "b", "c"]),
        "int": st.integers(min_value=-3, max_value=3),
        "float": st.sampled_from([0.5, -2.25, 10.0]),
        "bool": st.booleans(),
    }
    row = st.tuples(*[pools[kind] for kind in kinds], st.integers(min_value=-50, max_value=50))
    return {
        "schema": CubeSchema("diff", [f"d{i}" for i in range(n_dims)]),
        "rows": draw(st.lists(row, min_size=1, max_size=12)),
        "delta": draw(st.lists(row, min_size=1, max_size=4)),
        "flush": draw(st.booleans()),
    }


#: The co-resident cube, stored (and, on NoSQL, flushed) first: big
#: enough for several blocks, so the pushed ``schema_id`` skips some.
CORESIDENT = [(f"s{i % 7}", i % 5, f"x{i % 3}", i) for i in range(120)]


def _check_load(mapper, cube_id: int) -> DwarfCube:
    got, expected = mapper.load(cube_id), oracle_load(mapper, cube_id)
    assert structural_signature(got) == structural_signature(expected)
    for vector in _vectors(expected):
        assert got.value(vector) == expected.value(vector), vector
    return got


@pytest.mark.parametrize("name", MAPPER_NAMES)
@given(case=_cases())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_answers_like_the_record_path(name, case):
    schema, rows = case["schema"], case["rows"]
    mapper = _fresh(name)
    other = build_cube(CORESIDENT, CubeSchema("other", ["a", "b", "c"]))
    other_id = mapper.store(other)
    _flush(mapper)
    cube = build_cube(rows, schema)
    cube_id = mapper.store(cube)
    maintainer = CubeMaintainer.open(mapper, DwarfBuilder(schema).build(rows))
    if case["flush"]:
        _flush(mapper)  # the delta below stays in the memtables
    maintainer.append(case["delta"])
    view = maintainer.view()
    assert len(view.delta_ids) == 1

    assert structural_signature(_check_load(mapper, cube_id)) == (
        structural_signature(cube)
    )
    assert structural_signature(_check_load(mapper, other_id)) == (
        structural_signature(other)
    )
    _check_load(mapper, view.base_id)
    _check_load(mapper, view.delta_ids[0])
    if _nosql(mapper) and case["flush"]:
        scan = kernel_plan(mapper, scan_kernel(mapper.mapping, mapper.mapping.cells))
        assert scan.root.blocks_skipped > 0


# ----------------------------------------------------------------------
# what the column read does not do
# ----------------------------------------------------------------------
def _refuse(*_args, **_kwargs):
    raise AssertionError("load must not reach this")


@pytest.mark.parametrize("name", MAPPER_NAMES)
def test_load_builds_no_row_dicts(name, sample_cube, monkeypatch):
    mapper = _fresh(name)
    schema_id = mapper.store(sample_cube)
    _flush(mapper)
    mapper.probe_size(schema_id)  # NoSQL: the registry row in blocks and a memtable
    for cls in (Batch, VectorBatch, RowBatch):
        monkeypatch.setattr(cls, "rows", _refuse)
    loaded = mapper.load(schema_id)
    monkeypatch.undo()
    assert structural_signature(loaded) == structural_signature(sample_cube)


def test_nosql_dwarf_load_parses_only_the_chunks_it_names(bike_bundle, monkeypatch):
    _, _, cube = bike_bundle
    mapper = _fresh("NoSQL-DWARF")
    schema_id = mapper.store(cube)
    _flush(mapper)
    for table in _tables(mapper):
        table._block_cache.clear()  # so the load parses every chunk it reads

    parsed = {"cells": set(), "nodes": set()}
    parse_chunk = ColumnVectors._parse_chunk

    def recording(self, col_index, offset):
        names = self.names
        table = "cells" if "key" in names else "nodes" if "childrenIds" in names else None
        if table is not None:
            parsed[table].add(names[col_index])
        return parse_chunk(self, col_index, offset)

    monkeypatch.setattr(ColumnVectors, "_parse_chunk", recording)
    monkeypatch.setattr(SetType, "decode", _refuse)
    loaded = mapper.load(schema_id)
    monkeypatch.undo()
    assert structural_signature(loaded) == structural_signature(cube)
    assert parsed == {
        "cells": {"id", "key", "measure", "parentNode", "pointerNode", "leaf", "schema_id"},
        "nodes": {"id", "schema_id"},
    }
