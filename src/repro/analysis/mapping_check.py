"""Bi-directional mapping invariant checker.

Every storage schema in the paper's evaluation is *bi-directional*:
``store`` flattens the DWARF into rows, ``load`` joins them back into an
identical cube (paper §3–4).  "Identical" here is structural — same
topology, same sharing (the DAG), same member keys, same leaf measures —
which is exactly what :func:`~repro.analysis.dwarf_check
.structural_signature` captures.  The checker verifies the three layers
of that promise independently:

* **Member codec** — ``decode_member(encode_member(k)) == k`` with the
  exact type, for every member key the cube actually contains (the text
  column is the only place dimension values survive storage).
* **Flatten round-trip** — ``rebuild_cube(transform_cube(cube))`` is
  structurally identical to ``cube``, before any engine is involved.
* **Store round-trip** — ``mapper.load(mapper.store(cube))`` is
  structurally identical, through the real engine write/read paths.
* **Registry agreement** — the stored :class:`StoredSchemaInfo` row
  reports the same node/cell counts the transformation produced.
* **Declaration agreement** — every table the mapper's
  :class:`~repro.mapping.schema_mapping.SchemaMapping` declares exists
  with exactly the declared columns, in order, and the declared
  secondary indexes.
"""

from __future__ import annotations

from typing import List, Set

from repro.analysis.dwarf_check import structural_signature
from repro.analysis.violations import CheckReport
from repro.dwarf.cube import DwarfCube
from repro.dwarf.traversal import breadth_first
from repro.mapping.base import (
    CubeMapper,
    decode_member,
    encode_member,
    rebuild_cube,
    transform_cube,
)

_CHECKER = "mapping"


def _keys_equal(left, right) -> bool:
    """Exact-type, NaN-aware member equality (1 != 1.0 != True here)."""
    if type(left) is not type(right):
        return False
    if left != left and right != right:  # both NaN
        return True
    return left == right


def _member_keys(cube: DwarfCube) -> List[object]:
    keys: List[object] = []
    seen: Set = set()
    for visit in breadth_first(cube.root):
        cell = visit.cell
        if cell is None or cell.is_all:
            continue
        marker = (type(cell.key).__name__, repr(cell.key))
        if marker not in seen:
            seen.add(marker)
            keys.append(cell.key)
    return keys


def mapping_check(mapper: CubeMapper, cube: DwarfCube) -> CheckReport:
    """Round-trip ``cube`` through ``mapper`` and report any divergence.

    Mutating: the cube is genuinely stored into the mapper's engine (that
    is the point — the round trip must cross the real write/read paths).
    Run against a scratch mapper instance, not one holding benchmark data
    you still need.
    """
    report = CheckReport(f"mapping_check[{mapper.name}]")
    reference = structural_signature(cube)

    for key in _member_keys(cube):
        try:
            decoded = decode_member(encode_member(key))
        except Exception as exc:
            report.add(
                _CHECKER, "mapping.member-codec", f"{mapper.name}/key={key!r}",
                f"member codec raised {type(exc).__name__}: {exc}",
            )
            continue
        report.check(
            _keys_equal(decoded, key), _CHECKER, "mapping.member-codec",
            f"{mapper.name}/key={key!r}",
            f"member {key!r} round-trips to {decoded!r}",
        )

    try:
        flat = transform_cube(cube)
        rebuilt = rebuild_cube(
            cube.schema, flat.nodes, flat.cells, flat.entry_node_id,
            n_source_tuples=cube.n_source_tuples,
        )
    except Exception as exc:
        report.add(
            _CHECKER, "mapping.flatten-roundtrip", mapper.name,
            f"transform/rebuild raised {type(exc).__name__}: {exc}",
        )
        return report
    report.check(
        structural_signature(rebuilt) == reference, _CHECKER,
        "mapping.flatten-roundtrip", mapper.name,
        "rebuild_cube(transform_cube(cube)) is not structurally identical "
        "to the original (topology, sharing or values differ)",
    )

    schema_id = None
    try:
        schema_id = mapper.store(cube, is_cube=True)
        loaded = mapper.load(schema_id, cube.schema)
    except Exception as exc:
        report.add(
            _CHECKER, "mapping.store-roundtrip", mapper.name,
            f"store/load raised {type(exc).__name__}: {exc}",
        )
        if schema_id is None:
            return report
    else:
        report.check(
            structural_signature(loaded) == reference, _CHECKER,
            "mapping.store-roundtrip", mapper.name,
            f"cube loaded from schema_id={schema_id} is not structurally "
            "identical to the one stored",
        )

    try:
        info = mapper.info(schema_id)
    except Exception as exc:
        report.add(
            _CHECKER, "mapping.registry", mapper.name,
            f"info({schema_id}) raised {type(exc).__name__}: {exc}",
        )
        return report
    report.check(
        info.node_count == len(flat.nodes), _CHECKER, "mapping.registry",
        mapper.name,
        f"registry reports {info.node_count} nodes, transformation produced "
        f"{len(flat.nodes)}",
    )
    report.check(
        info.cell_count == len(flat.cells), _CHECKER, "mapping.registry",
        mapper.name,
        f"registry reports {info.cell_count} cells, transformation produced "
        f"{len(flat.cells)}",
    )
    if mapper.mapping.registry.column("is_cube") is not None:
        # Only the DWARF schemas persist the entry node and the is_cube
        # flag (paper Table 1-A); the Min registries model neither.
        report.check(
            bool(info.is_cube), _CHECKER, "mapping.registry", mapper.name,
            "cube stored with is_cube=True registered as a plain schema",
        )

    space = mapper.space()
    for declared in mapper.mapping.tables:
        where = f"{mapper.name}/{declared.name}"
        if not space.has_table(declared.name):
            report.add(_CHECKER, "mapping.declaration", where, "declared table missing")
            continue
        table = space.table(declared.name)
        columns = tuple(column.name for column in declared.columns)
        report.check(
            tuple(table.column_names) == columns, _CHECKER, "mapping.declaration",
            where, f"columns {tuple(table.column_names)} differ from declared {columns}",
        )
        report.check(
            set(table.indexed_columns) == set(declared.indexes), _CHECKER,
            "mapping.declaration", where,
            f"indexes {sorted(table.indexed_columns)} differ from declared "
            f"{sorted(declared.indexes)}",
        )
    return report
