"""Structural contracts over the source tree and the prose docs.

* **One mapper, no schema fork.** The four storage schemas are
  :class:`~repro.mapping.schema_mapping.SchemaMapping` declarations read
  by one generic :class:`~repro.mapping.base.CubeMapper`.  Outside the
  four declaration modules and the registry, no code under
  ``src/repro`` may dispatch on a mapper class (``isinstance(x,
  NoSQLDwarfMapper)``, ``type(mapper)``, a dict keyed on mapper classes)
  or probe a mapper's engine with ``hasattr``/``getattr`` on
  ``keyspace_name`` / ``database_name`` / ``epoch_table`` — such code
  reads ``mapper.mapping`` instead.
* **One layout per table.** No hash ring, per-partition scan,
  partial-aggregate merge or query worker pool is back under ``src/``
  (the CI static-analysis grep checks the same names).
* **One write path.** A store reaches the NoSQL write loop as column
  batches: no per-row bound-item loop (``insert_bound_many``) or
  record-to-row adapter (``_record_rows``) is back under ``src/`` (the
  CI grep checks the same names; ``tests/mapping/test_store_columns.py``
  checks that no record is built while storing).
* **One DWARF construction path.** ``DwarfBuilder`` builds and
  ``DeltaDwarfBuilder`` merges: no worker pool, ``REPRO_WORKERS``,
  open-root build or second merge helper is back under ``src/`` (the CI
  grep checks the same names).
* **Docs cite what exists.** Every repo path and every backticked
  ``repro.*`` name in ``DESIGN.md``, ``README.md``, ``EXPERIMENTS.md``
  and ``docs/*.md`` resolves.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

MAPPER_CLASSES = {"NoSQLDwarfMapper", "NoSQLMinMapper", "MySQLDwarfMapper", "MySQLMinMapper"}
PROBED_ATTRIBUTES = {"keyspace_name", "database_name", "epoch_table"}
EXEMPT = {
    SRC / "mapping" / name
    for name in ("nosql_dwarf.py", "nosql_min.py", "mysql_dwarf.py", "mysql_min.py", "registry.py")
}


def _names(node) -> set:
    """Every bare or dotted-tail name appearing in an expression."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def schema_fork_findings(path: Path, source: str):
    """``(line, what)`` for every mapper-class dispatch or engine probe."""
    findings = []
    for node in ast.walk(ast.parse(source, filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name, args = node.func.id, node.args
            if name in ("isinstance", "issubclass") and len(args) == 2:
                if _names(args[1]) & MAPPER_CLASSES:
                    findings.append((node.lineno, f"{name} on a mapper class"))
            elif name == "type" and len(args) == 1 and _names(args[0]) & {"mapper"}:
                findings.append((node.lineno, "type(mapper)"))
            elif name in ("hasattr", "getattr") and len(args) >= 2:
                probed = args[1]
                if isinstance(probed, ast.Constant) and probed.value in PROBED_ATTRIBUTES:
                    findings.append((node.lineno, f"{name}(..., {probed.value!r})"))
        elif isinstance(node, ast.Dict):
            if any(key is not None and _names(key) & MAPPER_CLASSES for key in node.keys):
                findings.append((node.lineno, "dict keyed on mapper classes"))
    return findings


def test_no_mapper_class_dispatch_outside_the_declarations():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in EXEMPT:
            continue
        for line, what in schema_fork_findings(path, path.read_text(encoding="utf-8")):
            offenders.append(f"{path.relative_to(ROOT)}:{line}: {what}")
    assert not offenders, "read mapper.mapping instead:\n" + "\n".join(offenders)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("isinstance(m, NoSQLDwarfMapper)", "isinstance on a mapper class"),
        ("isinstance(m, (MySQLMinMapper, int))", "isinstance on a mapper class"),
        ("type(mapper) is X", "type(mapper)"),
        ("{NoSQLMinMapper: f}", "dict keyed on mapper classes"),
        ("{mod.MySQLDwarfMapper: f}", "dict keyed on mapper classes"),
        ("hasattr(m, 'keyspace_name')", "hasattr(..., 'keyspace_name')"),
        ("getattr(m, 'epoch_table', None)", "getattr(..., 'epoch_table')"),
    ],
)
def test_schema_fork_detector_flags(source, expected):
    assert [what for _, what in schema_fork_findings(Path("x.py"), source)] == [expected]


def test_schema_fork_detector_passes_mapping_reads():
    source = "m.mapping.epoch.name\nisinstance(m, CubeMapper)\ngetattr(m, 'session')\n"
    assert schema_fork_findings(Path("x.py"), source) == []


# ----------------------------------------------------------------------
# one layout per table
# ----------------------------------------------------------------------
SCATTER_GATHER_RE = re.compile(
    r"HashRing|run_sharded|scan_shard|shard_count|REPRO_SHARDS|PartialAggregate|map_tasks"
)


def _src_hits(pattern):
    return [
        f"{path.relative_to(ROOT)}:{number}: {match.group(0)}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for match in pattern.finditer(line)
    ]


def test_no_scatter_gather_path_under_src():
    hits = _src_hits(SCATTER_GATHER_RE)
    assert not hits, "a partitioned execution path is back:\n" + "\n".join(hits)


# ----------------------------------------------------------------------
# one write path: column batches from the mapper to the write loop
# ----------------------------------------------------------------------
ROW_WRITE_RE = re.compile(r"insert_bound_many|_record_rows")


def test_no_row_write_path_under_src():
    hits = _src_hits(ROW_WRITE_RE)
    assert not hits, "a per-row write path is back beside the column batch:\n" + "\n".join(hits)


# ----------------------------------------------------------------------
# one DWARF construction path: DwarfBuilder builds, DeltaDwarfBuilder merges
# ----------------------------------------------------------------------
PARTITIONED_BUILD_RE = re.compile(
    r"ThreadPoolExecutor|ProcessPoolExecutor|REPRO_WORKERS|resolve_workers"
    r"|build_cube_parallel|close_root|merge_many|_from_sorted_facts|ParallelDwarfBuilder"
)
#: The one allowed hit: the benchmark harness still imports the old name.
HARNESS_ALIAS = (SRC / "dwarf" / "parallel.py", "ParallelDwarfBuilder = DwarfBuilder")


def test_one_dwarf_construction_path_under_src():
    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if PARTITIONED_BUILD_RE.search(line)
        and not (path == HARNESS_ALIAS[0] and line.startswith(HARNESS_ALIAS[1]))
    ]
    assert not hits, "a second build or merge path is back:\n" + "\n".join(hits)


# ----------------------------------------------------------------------
# docs cite what exists
# ----------------------------------------------------------------------
DOCS = [ROOT / "DESIGN.md", ROOT / "README.md", ROOT / "EXPERIMENTS.md"] + sorted(
    (ROOT / "docs").glob("*.md")
)
PATH_RE = re.compile(r"(?<![\w/.-])(?:src|tests|benchmarks|examples|docs)/[\w./-]*?\.(?:py|md|json)\b")
NAME_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def _citations(pattern):
    for doc in DOCS:
        for number, line in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1):
            for match in pattern.finditer(line):
                yield f"{doc.relative_to(ROOT)}:{number}", match.group(1 if pattern.groups else 0)


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def test_doc_paths_exist():
    missing = [f"{where}: {path}" for where, path in _citations(PATH_RE)
               if not (ROOT / path).exists()]
    assert not missing, "docs cite missing files:\n" + "\n".join(missing)


def test_doc_repro_names_resolve():
    broken = [f"{where}: {name}" for where, name in _citations(NAME_RE)
              if not _resolves(name)]
    assert not broken, "docs cite missing names:\n" + "\n".join(broken)
