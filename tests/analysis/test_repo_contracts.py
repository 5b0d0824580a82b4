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
* **One benchmark ruler.** ``repro bench`` regenerates Tables 4/5 and
  ``benchmarks/e2e`` measures performance: the same table keeps
  per-table pytest scripts, their timing helper and fixture out.
* **Source rules.** REPRO006 (the kernel imports only itself and
  telemetry), REPRO007 (no raw ``perf_counter``), REPRO008 (lock
  discipline), REPRO012 (import layers, path bans and no top-level
  cycle) and REPRO014 (catalogued telemetry names) are the smallest AST
  checks over one cached parse of ``src/repro`` and ``benchmarks/``,
  each with a planted-violation self-test.
* **Docs cite what exists.** Every repo path and every backticked
  ``repro.*`` name in ``DESIGN.md``, ``README.md``, ``EXPERIMENTS.md``
  and ``docs/*.md`` resolves.
"""

from __future__ import annotations

import ast
import functools
import importlib
import re
from pathlib import Path
from typing import NamedTuple, Tuple

import pytest

from repro.telemetry.catalog import METRIC_NAMES, SPAN_NAMES

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

MAPPER_CLASSES = {"NoSQLDwarfMapper", "NoSQLMinMapper", "MySQLDwarfMapper", "MySQLMinMapper"}
PROBED_ATTRIBUTES = {"keyspace_name", "database_name", "epoch_table"}
EXEMPT = {
    f"src/repro/mapping/{name}"
    for name in ("nosql_dwarf.py", "nosql_min.py", "mysql_dwarf.py", "mysql_min.py", "registry.py")
}
#: Roots the AST contracts read; ``benchmarks/`` is read, never changed.
SOURCE_ROOTS = (SRC, ROOT / "benchmarks")


@functools.lru_cache(maxsize=None)
def parsed_sources() -> Tuple[Tuple[str, ast.Module], ...]:
    """``(path relative to the repo root, tree)``: one parse per file per run."""
    return tuple(
        (path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for root in SOURCE_ROOTS
        for path in sorted(root.rglob("*.py"))
    )


@functools.lru_cache(maxsize=None)
def walked(tree: ast.AST) -> Tuple[ast.AST, ...]:
    """Every node under ``tree``: one ``ast.walk`` shared by the contracts."""
    return tuple(ast.walk(tree))


def _names(node) -> set:
    """Every bare or dotted-tail name appearing in an expression."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def schema_fork_findings(tree: ast.AST):
    """``(line, what)`` for every mapper-class dispatch or engine probe."""
    findings = []
    for node in walked(tree):
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
    offenders = [
        f"{relative}:{line}: {what}"
        for relative, tree in parsed_sources()
        if relative.startswith("src/") and relative not in EXEMPT
        for line, what in schema_fork_findings(tree)
    ]
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
    assert [what for _, what in schema_fork_findings(ast.parse(source))] == [expected]


def test_schema_fork_detector_passes_mapping_reads():
    source = "m.mapping.epoch.name\nisinstance(m, CubeMapper)\ngetattr(m, 'session')\n"
    assert schema_fork_findings(ast.parse(source)) == []


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
    #: A file within ``scope`` whose repo-relative path matches this is a hit.
    banned_paths: str = ""


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
    Contract("a kernel leaf calling its table beside get_batches and scan_batches",
             r"\.table\.(?!(get|scan)_batches\()\w+\(", ("src/repro/query/plan.py",)),
    Contract("a block decoded back to rows", r"_decoded_block"),
    Contract("rows rematerialized outside the codec, SSTable.items() and the checkers",
             r"all_rows\(", allowed=("src/repro/nosqldb/columnar.py",
                                     "src/repro/nosqldb/sstable.py", "src/repro/analysis")),
    Contract("a second all_rows( in the SSTable beside items() for the checkers",
             r"all_rows\(", ("src/repro/nosqldb/sstable.py",), max_hits=1),
    # Flush and compaction move columns: rows are split only by the
    # codec's row feeder, where they exist as bytes alone, and compaction
    # merges column chunks.
    Contract("compaction rematerializing rows through an SSTable's items()",
             r"\b(table|sstable|tables\[\w*\])\.items\(\)", ("src/repro/nosqldb",)),
    Contract("a row split beside the codec's row feeder anywhere under src",
             r"split_rows\(", allowed=("src/repro/nosqldb/columnar.py",)),
    # Every SSTable block is columnar: no second layout, no fallback for
    # rows the codec cannot hold, no option or knob choosing a format.
    Contract("a second SSTable block format or a format knob",
             r"TAG_ROW|_row_payload|_row_entries|BlockRefused|REPRO_BLOCK_FORMAT|block_format"
             r"|fallback_blocks", ("src/repro",)),
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
    # Tables 4/5 come from `repro bench` and performance from benchmarks/e2e.
    Contract("a second benchmark ruler",
             r"pytest[-_]benchmark|\bbenchmark\.(pedantic|stats)\b|def test_\w*\(.*\bbenchmark\b",
             ("src", "tests", "benchmarks", "pyproject.toml", "setup.py", "src/repro.egg-info/requires.txt",
              ".github/workflows/ci.yml", "README.md", "DESIGN.md", "EXPERIMENTS.md"),
             allowed=("tests/analysis/test_repo_contracts.py",),
             banned_paths=r"benchmarks/(bench_\w*|_timing|conftest)\.py"),
]


def _under(path: str, prefixes) -> bool:
    return any(path == prefix or path.startswith(prefix + "/") for prefix in prefixes)


def _scoped_files(root: Path, scope):
    """The ``.py`` files under each directory of ``scope``, and each file it names."""
    for prefix in scope:
        path = root / prefix
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.is_file():
            yield path


def contract_hits(contract: Contract, root: Path = ROOT):
    pattern = re.compile(contract.pattern)
    hits = []
    for path in _scoped_files(root, contract.scope):
        relative = path.relative_to(root).as_posix()
        if _under(relative, contract.allowed):
            continue
        if contract.banned_paths and re.fullmatch(contract.banned_paths, relative):
            hits.append(relative)
        hits += [f"{relative}:{number}: {line.strip()}"
                 for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if pattern.search(line)]
    return hits


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


@pytest.mark.parametrize("source", [
    "TAG_ROW = 0x52",
    "                payload = _row_payload(encoded_keys, feed.rows(start, stop))",
    "            except BlockRefused:",
    '    raw = os.environ.get("REPRO_BLOCK_FORMAT", "")',
    "        block_format: Optional[str] = None,",
    "    fallback_blocks: int = 0",
])
def test_contract_table_catches_a_second_block_format(tmp_path, source):
    contract = next(c for c in CONTRACTS if c.breach.startswith("a second SSTable block format"))
    copy = tmp_path / "src" / "repro" / "nosqldb" / "sstable.py"
    copy.parent.mkdir(parents=True)
    copy.write_text(source + "\n", encoding="utf-8")
    assert contract_hits(contract, tmp_path) == ["src/repro/nosqldb/sstable.py:1: " + source.strip()]


def test_contract_table_catches_a_second_benchmark_ruler(tmp_path):
    contract = next(c for c in CONTRACTS if c.breach == "a second benchmark ruler")
    planted = {
        "benchmarks/bench_table4_storage_size.py": "def test_table4_shape(benchmark):",
        "benchmarks/_timing.py": "",
        "benchmarks/conftest.py": "",
        "benchmarks/e2e/_timing.py": "",
        "tests/core/test_insert.py": "    benchmark.pedantic(run, rounds=1, iterations=1)",
        "pyproject.toml": 'test = ["pytest", "pytest_benchmark", "hypothesis"]',
    }
    for relative, source in planted.items():
        (tmp_path / relative).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / relative).write_text(source + "\n", encoding="utf-8")
    assert sorted(contract_hits(contract, tmp_path)) == sorted([
        "benchmarks/_timing.py",
        "benchmarks/bench_table4_storage_size.py",
        "benchmarks/bench_table4_storage_size.py:1: def test_table4_shape(benchmark):",
        "benchmarks/conftest.py",
        "tests/core/test_insert.py:1: benchmark.pedantic(run, rounds=1, iterations=1)",
        'pyproject.toml:1: test = ["pytest", "pytest_benchmark", "hypothesis"]',
    ])


# ----------------------------------------------------------------------
# source rules, labelled by their REPRO ids
# ----------------------------------------------------------------------
def _within(module: str, prefixes) -> bool:
    return any(module == prefix or module.startswith(prefix + ".") for prefix in prefixes)


def _module_of(relative: str):
    """Dotted module name of a file under ``src/``; None elsewhere."""
    if not relative.startswith("src/"):
        return None
    parts = relative[len("src/"):-len(".py")].split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _import_nodes(node, lazy=False):
    """``(import statement, lazy)``; an import inside a function is lazy.
    Expressions hold no statement, so the walk skips them."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, lazy
        elif not isinstance(child, ast.expr):
            nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from _import_nodes(child, lazy or nested)


def repro_imports(relative: str, tree: ast.Module):
    """``(target, line, lazy)`` per ``repro`` import: ``from m import a``
    names ``m.a``, and a relative import resolves against the file's package."""
    module = _module_of(relative) or ""
    package = module.split(".") if relative.endswith("__init__.py") else module.split(".")[:-1]
    for node, lazy in _import_nodes(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        else:
            base = node.module
            if node.level:
                base = ".".join(package[: len(package) - node.level + 1] + [node.module or ""]).strip(".")
            targets = [f"{base}.{alias.name}" for alias in node.names]
        for target in targets:
            if _within(target, ("repro",)):
                yield target, node.lineno, lazy


class ImportBan(NamedTuple):
    scope: Tuple[str, ...]
    #: Module prefixes files in ``scope`` never import, lazy imports included.
    banned: Tuple[str, ...]
    #: Prefixes within ``banned`` that stay allowed.
    allowed: Tuple[str, ...] = ()

    def __call__(self, relative: str, tree: ast.Module):
        if not _under(relative, self.scope):
            return []
        return [(line, f"imports {target}") for target, line, _ in repro_imports(relative, tree)
                if _within(target, self.banned) and not _within(target, self.allowed)]


def raw_clock_findings(relative: str, tree: ast.Module):
    """REPRO007: ``perf_counter`` only in the telemetry package."""
    if _under(relative, ("src/repro/telemetry",)):
        return []
    return [(node.lineno, "raw perf_counter; time through repro.telemetry.wall_clock or a span")
            for node in walked(tree)
            if "perf_counter" in (getattr(node, "id", None), getattr(node, "attr", None))
            or isinstance(node, ast.ImportFrom) and any(alias.name == "perf_counter" for alias in node.names)]


_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}
_MUTATORS = {"append", "extend", "add", "update", "setdefault", "pop", "popitem", "remove", "discard",
             "insert", "clear", "appendleft", "extendleft"}
#: Construction and teardown run before or after the object is shared.
_UNSHARED_METHODS = ("__init__", "__new__", "__del__", "__enter__", "__exit__")
_UNSHARED_PARTS = ("reset", "clear", "close")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.expr)


def _self_field(node):
    """``x`` for ``self.x`` or ``self.x[k]``; None otherwise."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _field_writes(node, locks, held=False):
    """``(field, line, held)`` per ``self`` field write in one function;
    ``held`` when an enclosing ``with self.<lock>:`` of that function holds a lock.
    Nested scopes are skipped, and so are expressions: they hold no write."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPES):
            continue
        targets = []
        if isinstance(child, ast.Assign):
            targets = child.targets
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)) and child.value is not None:
            targets = [child.target]
        elif (isinstance(child, ast.Expr) and isinstance(child.value, ast.Call)
              and isinstance(child.value.func, ast.Attribute) and child.value.func.attr in _MUTATORS):
            targets = [child.value.func.value]
        for target in targets:
            field = _self_field(target)
            if field is not None and field not in locks:
                yield field, child.lineno, held
        holds = isinstance(child, ast.With) and any(_self_field(i.context_expr) in locks for i in child.items)
        yield from _field_writes(child, locks, held or holds)


def lock_findings(relative: str, tree: ast.Module):
    """REPRO008: a field some method writes under the class's lock is written under it everywhere."""
    findings = []
    for cls in walked(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = [m for m in cls.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
        locks = {
            _self_field(target)
            for method in methods for node in ast.walk(method)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "attr", getattr(node.value.func, "id", None)) in _LOCK_FACTORIES
            for target in node.targets
        } - {None}
        writes = [(method.name, *write) for method in methods for write in _field_writes(method, locks)]
        guarded = {field for _, field, _, held in writes if held}
        findings += [
            (line, f"{cls.name}.{name}() writes self.{field} outside `with self.{min(locks)}:`")
            for name, field, line, held in writes
            if field in guarded and not held
            and name not in _UNSHARED_METHODS and not any(part in name.lower() for part in _UNSHARED_PARTS)
        ]
    return findings


def telemetry_name_findings(relative: str, tree: ast.Module):
    """REPRO014: a literal metric or span name is declared in repro.telemetry.catalog."""
    catalogs = {"counter": METRIC_NAMES, "gauge": METRIC_NAMES, "histogram": METRIC_NAMES, "span": SPAN_NAMES}
    return [(node.lineno, f"{node.args[0].value!r} is not in repro.telemetry.catalog")
            for node in walked(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in catalogs and node.args
            and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
            and node.args[0].value not in catalogs[node.func.attr]]


#: Per-file source rules: label -> ``(relative path, tree) -> [(line, message)]``.
FILE_RULES = {
    "REPRO006 the query kernel imports a repro package other than itself and telemetry":
        ImportBan(("src/repro/query",), ("repro",), ("repro.query", "repro.telemetry")),
    "REPRO007 a raw perf_counter outside the telemetry package": raw_clock_findings,
    "REPRO008 a lock-guarded field written outside its lock": lock_findings,
    "REPRO012 a statement front end imports the mapping layer":
        ImportBan(("src/repro/sqldb/sql", "src/repro/nosqldb/cql"), ("repro.mapping",)),
    "REPRO012 storage imports a higher layer":
        ImportBan(("src/repro/storage",),
                  ("repro.dwarf", "repro.sqldb", "repro.nosqldb", "repro.mapping", "repro.etl")),
    "REPRO014 a literal metric or span name missing from the catalog": telemetry_name_findings,
}


@pytest.mark.parametrize("rule", FILE_RULES)
def test_source_rule(rule):
    hits = [f"{relative}:{line}: {message}"
            for relative, tree in parsed_sources()
            for line, message in FILE_RULES[rule](relative, tree)]
    assert not hits, f"{rule}:\n" + "\n".join(hits)


#: The declared layer order, low to high: a top-level import points at
#: its own package or a strictly lower layer.
LAYERS = (
    ("repro.core", "repro.telemetry"),
    ("repro.storage",),
    ("repro.query",),
    ("repro.sqldb", "repro.nosqldb"),
    ("repro.dwarf", "repro.etl"),
    ("repro.mapping", "repro.smartcity"),
    ("repro.bench", "repro.analysis"),
    ("repro.cli",),
    ("repro.__main__",),
)
#: Stdlib-only leaves any layer may import.
LEAF_MODULES = ("repro.telemetry", "repro.analysis.flags")
#: The package root re-exports the public API and is no layer.
EXEMPT_IMPORTERS = ("repro",)


def _layer(module: str):
    """``(declared package, rank)`` by longest prefix; ``(module, None)`` if undeclared."""
    declared = [(package, rank) for rank, packages in enumerate(LAYERS) for package in packages
                if _within(module, (package,))]
    return max(declared, key=lambda pair: len(pair[0]), default=(module, None))


def import_layering_findings(sources):
    """REPRO012: ``(path, line, message)`` per top-level import that leaves
    the layer order, and per top-level import cycle."""
    files = {_module_of(relative): (relative, tree) for relative, tree in sources if _module_of(relative)}
    graph = {module: {} for module in files}
    findings = []
    for module, (relative, tree) in files.items():
        for target, line, lazy in repro_imports(relative, tree):
            if lazy:
                continue
            if target not in files and target.rpartition(".")[0] in files:
                target = target.rpartition(".")[0]  # from m import name: an attribute of m
            graph[module].setdefault(target, line)
            if module in EXEMPT_IMPORTERS or target == "repro" or _within(target, LEAF_MODULES):
                continue
            (source_package, source_rank), (target_package, target_rank) = _layer(module), _layer(target)
            if source_package == target_package:
                continue
            if source_rank is None or target_rank is None:
                findings.append((relative, line, f"{module} -> {target}: add the package to LAYERS"))
            elif target_rank >= source_rank:
                findings.append((relative, line, f"{module} (layer {source_rank}) imports {target} "
                                                 f"(layer {target_rank}); import lazily or move it down"))
    state = {}

    def visit(module, path):
        state[module] = "open"
        for target, line in sorted(graph[module].items()):
            if state.get(target) == "open":
                findings.append((files[module][0], line, "top-level import cycle: "
                                 + " -> ".join(path[path.index(target):] + [target])))
            elif target in graph and target not in state:
                visit(target, path + [target])
        state[module] = "done"

    for module in sorted(graph):
        if module not in state:
            visit(module, [module])
    return findings


def test_repro012_imports_follow_the_layers_without_a_top_level_cycle():
    hits = [f"{relative}:{line}: {message}"
            for relative, line, message in import_layering_findings(parsed_sources())]
    assert not hits, "REPRO012:\n" + "\n".join(hits)


LOCKED_CLASS = """\
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def bump(self):
        with self._lock:
            self.n += 1

    def reset(self):
        self.n = 0
"""


PLANTED = {
    "REPRO006-lazy-engine-import":
        ("REPRO006", "src/repro/query/plan.py", "def f():\n    from repro.sqldb.table import Table\n", 2),
    "REPRO006-package-import": ("REPRO006", "src/repro/query/plan.py", "from repro import core\n", 1),
    "REPRO007-call": ("REPRO007", "src/repro/etl/stream.py", "import time\nstart = time.perf_counter()\n", 2),
    "REPRO007-import": ("REPRO007", "benchmarks/e2e/run.py", "from time import perf_counter as clock\n", 1),
    "REPRO008-write-after-with": ("REPRO008", "src/repro/x.py", LOCKED_CLASS + "\n    def racy(self):\n"
                                  "        with self._lock:\n            pass\n        self.n += 1\n", 19),
    "REPRO008-unguarded-method": ("REPRO008", "src/repro/x.py",
                                  LOCKED_CLASS + "\n    def racy(self, k):\n        self.n[k] = 1\n", 17),
    "REPRO012-front-end-imports-mapping": ("REPRO012 a statement front end",
                                           "src/repro/nosqldb/cql/parser.py",
                                           "def f():\n    import repro.mapping.base\n", 2),
    "REPRO012-storage-imports-etl":
        ("REPRO012 storage", "src/repro/storage/codec.py", "from repro.etl import pipeline\n", 1),
    "REPRO014-span": ("REPRO014", "benchmarks/e2e/workloads.py", "tracer.span('dwarf.biuld')\n", 1),
    "REPRO014-counter":
        ("REPRO014", "src/repro/dwarf/builder.py", "registry.counter('dwarf_typo_total', 'help')\n", 1),
}


@pytest.mark.parametrize("rule, relative, source, line", PLANTED.values(), ids=PLANTED)
def test_source_rule_catches_a_planted_violation(rule, relative, source, line):
    check = next(check for label, check in FILE_RULES.items() if label.startswith(rule))
    assert [found for found, _ in check(relative, ast.parse(source))] == [line]


def test_repro008_passes_guarded_and_unshared_writes():
    assert lock_findings("src/repro/x.py", ast.parse(LOCKED_CLASS)) == []


def test_repro008_catches_the_tracer_race_replanted():
    """The race the old lint found in Tracer.span: the span counter
    bumped after, not inside, the ``with self._lock:`` block."""
    source = (SRC / "telemetry" / "trace.py").read_text(encoding="utf-8")
    guarded = "            self._n_spans += 1\n        span = Span("
    racy = source.replace(guarded, "        self._n_spans += 1\n        span = Span(")
    assert racy != source
    line = racy[: racy.index("        self._n_spans += 1\n        span = Span(")].count("\n") + 1
    assert lock_findings("src/repro/telemetry/trace.py", ast.parse(racy)) == [
        (line, "Tracer.span() writes self._n_spans outside `with self._lock:`")]


@pytest.mark.parametrize("sources, expected", [
    pytest.param({"src/repro/storage/codec.py": "from repro.dwarf import cube\n"},
                 "(layer 1) imports repro.dwarf.cube (layer 4)", id="upward"),
    pytest.param({"src/repro/sqldb/db.py": "from repro.nosqldb import keyspace\n"},
                 "(layer 3) imports repro.nosqldb.keyspace (layer 3)", id="sibling"),
    pytest.param({"src/repro/extra/x.py": "import repro.core\n"},
                 "add the package to LAYERS", id="undeclared"),
    pytest.param({"src/repro/core/a.py": "import repro.core.b\n",
                  "src/repro/core/b.py": "from repro.core import a\n"},
                 "top-level import cycle: repro.core.a -> repro.core.b -> repro.core.a", id="cycle"),
])
def test_repro012_catches_a_planted_violation(sources, expected):
    findings = import_layering_findings([(relative, ast.parse(text)) for relative, text in sources.items()])
    assert any(expected in message for _, _, message in findings), findings


def test_repro012_passes_lazy_upward_imports():
    sources = {"src/repro/storage/codec.py": "def f():\n    import repro.mapping.base\n",
               "src/repro/core/a.py": "def f():\n    import repro.core.b\n",
               "src/repro/core/b.py": "import repro.core.a\n"}
    assert import_layering_findings([(relative, ast.parse(text)) for relative, text in sources.items()]) == []


def test_contract_table_catches_a_leaf_calling_its_table_for_rows(tmp_path):
    contract = next(c for c in CONTRACTS if c.breach.startswith("a kernel leaf calling its table"))
    copy = tmp_path / "src" / "repro" / "query" / "plan.py"
    copy.parent.mkdir(parents=True)
    copy.write_text("self.table.get_batches(k)\nself.table.scan_batches()\nself.table.scan(x)\n",
                    encoding="utf-8")
    assert contract_hits(contract, tmp_path) == ["src/repro/query/plan.py:3: self.table.scan(x)"]


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
