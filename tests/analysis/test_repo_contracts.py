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
  partial-aggregate merge or query worker pool is back under ``src/``.
* **One write path.** A store reaches the NoSQL write loop as column
  batches: no per-row bound-item loop (``insert_bound_many``) or
  record-to-row adapter (``_record_rows``) is back under ``src/``
  (``tests/mapping/test_store_columns.py`` checks that no record is
  built while storing).
* **One DWARF construction path.** ``DwarfBuilder`` builds and
  ``DeltaDwarfBuilder`` merges: no worker pool, ``REPRO_WORKERS``,
  open-root build or second merge helper is back under ``src/``.
* **One execution path.** Kernel operators execute batches only, and
  leaves read storage through ``scan_batches`` / ``get_batches``: the
  :data:`CONTRACTS` table lists the row paths that must not come back,
  each with the paths where its pattern is allowed.
* **One statement front end.** SQL and CQL share the tokenizer loop,
  the parser core and the generic executor in ``repro.query``; the same
  table keeps copies of them out of ``sqldb`` and ``nosqldb``.
* **One stored-query walk.** Point queries, ``stored_select`` and
  ``stored_cell_count`` share one walk over a per-schema cell source on
  all four schemas: the same table keeps a second walk and a
  one-schema restriction out of ``repro.mapping``.
* **Docs cite what exists.** Every repo path and every backticked
  ``repro.*`` name in ``DESIGN.md``, ``README.md``, ``EXPERIMENTS.md``
  and ``docs/*.md`` resolves.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path
from typing import NamedTuple, Tuple

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
# one execution path and one statement front end: (pattern, allowed paths)
# ----------------------------------------------------------------------
class Contract(NamedTuple):
    #: What the pattern finding means.
    breach: str
    pattern: str
    #: Paths (relative to the repo root) searched; a directory covers its tree.
    scope: Tuple[str, ...] = ("src",)
    #: Paths within ``scope`` where the pattern is allowed.
    allowed: Tuple[str, ...] = ()
    #: Hits tolerated outside ``allowed``.
    max_hits: int = 0


_EXECUTORS = ("src/repro/sqldb/sql/executor.py", "src/repro/nosqldb/cql/executor.py")

CONTRACTS = [
    # Kernel operators implement batches(ctx) and nothing else.
    Contract("a row-list execute path beside batches(ctx)",
             r"def _execute\b|def rows\(self, ctx", ("src/repro/query/plan.py",)),
    Contract("a count-only scan entry point or a per-leaf row adapter",
             r"count_shard|count_filtered|scan_filtered|count_only|wrap="),
    # Leaves read storage through scan_batches / get_batches only.
    Contract("a row-returning fetch in a kernel leaf",
             r"\.get_many\(|\.get\(self\.key|\.lookup_indexed\(|\.lookup_pk_prefix\(",
             ("src/repro/query/plan.py",)),
    Contract("a block decoded back to rows", r"_decoded_block"),
    Contract("rows rematerialized outside the codec, SSTable.items() and the checkers",
             r"all_rows\(", allowed=("src/repro/nosqldb/columnar.py",
                                     "src/repro/nosqldb/sstable.py", "src/repro/analysis")),
    Contract("a second all_rows( in the SSTable beside items() for the checkers",
             r"all_rows\(", ("src/repro/nosqldb/sstable.py",), max_hits=1),
    # Flush and compaction move columns: rows are split only where they
    # exist as bytes alone, and compaction merges column chunks.
    Contract("compaction rematerializing rows through an SSTable's items()",
             r"\b(table|sstable|tables\[\w*\])\.items\(\)", ("src/repro/nosqldb",)),
    Contract("a row split beside the codec's row feeder and compaction's row-major inputs",
             r"split_rows\(", allowed=("src/repro/nosqldb/columnar.py",), max_hits=1),
    Contract("an sqldb leaf page handed up as a row batch",
             r"RowBatch\(", ("src/repro/sqldb/table.py",)),
    # SQL and CQL share one tokenizer, one parser core and one executor.
    Contract("a second tokenizer loop",
             r"lastgroup|def tokenize\b", allowed=("src/repro/query/syntax.py",)),
    Contract("token plumbing or a shared clause copied into a dialect",
             r"def (_peek|_advance|_error|_accept_keyword|_expect_keyword|_accept_op|_expect_op"
             r"|_identifier|_comma_list|parse_statement|_statement|_if_not_exists|_where_clause"
             r"|_order_by|_limit|_assignment|_explain|_use|_insert)\b",
             ("src/repro/sqldb", "src/repro/nosqldb")),
    Contract("statement dispatch or a shared statement copied into an engine executor",
             r"def (run|_select|_explain|_use|_truncate|_insert)\b|type\(statement\)", _EXECUTORS),
    # Point queries, stored_select and stored_cell_count share one walk.
    Contract("a second stored-query walk or a one-schema stored query",
             r"\b(_descend|_select_one|_select_plans|_select_kernels)\b"
             r"|implemented for NoSQL-DWARF", ("src/repro/mapping",)),
]


def _under(path: str, prefixes) -> bool:
    return any(path == prefix or path.startswith(prefix + "/") for prefix in prefixes)


def contract_hits(contract: Contract, root: Path = ROOT):
    pattern = re.compile(contract.pattern)
    return [
        f"{relative}:{number}: {line.strip()}"
        for path in sorted((root / "src").rglob("*.py"))
        for relative in [path.relative_to(root).as_posix()]
        if _under(relative, contract.scope) and not _under(relative, contract.allowed)
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]


@pytest.mark.parametrize("contract", CONTRACTS, ids=lambda c: c.breach)
def test_source_contract(contract):
    hits = contract_hits(contract)
    assert len(hits) <= contract.max_hits, f"{contract.breach}:\n" + "\n".join(hits)


def test_sqldb_batch_readers_decode_columns_not_rows():
    """sqldb's scan_batches / get_batches decode a column at a time;
    ``decode_row`` inside them is a leaf page handed up as whole rows."""
    source = (SRC / "sqldb" / "table.py").read_text(encoding="utf-8")
    readers = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name in ("scan_batches", "get_batches")
    ]
    assert len(readers) == 2
    offenders = [node.name for node in readers
                 if "decode_row" in ast.get_source_segment(source, node)]
    assert not offenders, f"decode_row in {offenders}"


@pytest.mark.parametrize("source, breach", [
    ("def tokenize(text):", "a second tokenizer loop"),
    ("    def _where_clause(self):", "token plumbing or a shared clause copied into a dialect"),
])
def test_contract_table_catches_a_copy(tmp_path, source, breach):
    contract = next(c for c in CONTRACTS if c.breach == breach)
    copy = tmp_path / "src" / "repro" / "sqldb" / "sql" / "lexer.py"
    copy.parent.mkdir(parents=True)
    copy.write_text(source + "\n", encoding="utf-8")
    assert contract_hits(contract, tmp_path) == ["src/repro/sqldb/sql/lexer.py:1: " + source.strip()]


@pytest.mark.parametrize("source", [
    "def _select_one(mapper, kernels, schema_id):",
    '        raise MappingError(f"{what} is implemented for NoSQL-DWARF storage")',
])
def test_contract_table_catches_a_second_stored_query_walk(tmp_path, source):
    contract = next(c for c in CONTRACTS if c.breach.startswith("a second stored-query walk"))
    copy = tmp_path / "src" / "repro" / "mapping" / "stored_query.py"
    copy.parent.mkdir(parents=True)
    copy.write_text(source + "\n", encoding="utf-8")
    assert contract_hits(contract, tmp_path) == ["src/repro/mapping/stored_query.py:1: " + source.strip()]


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
