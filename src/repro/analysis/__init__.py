"""Cross-layer invariant checkers and the repo-specific lint pass.

Sanitizer-style runtime checkers for every storage structure in the
reproduction (DWARF cubes, B-trees, SSTables, column families, heap
tables, bi-directional mappers), a :class:`CheckRunner` facade over
them, plus an AST lint pass — all surfaced through ``repro check``
and, at runtime, the ``REPRO_CHECK=1`` environment flag.

Attribute access is lazy (PEP 562): the hot-path hooks import
:func:`checks_enabled` from :mod:`repro.analysis.flags` at module load,
and resolving ``repro.analysis.<checker>`` only then pulls in the engine
modules that checker inspects — so importing this package never creates
an import cycle with the engines it checks.
"""

from __future__ import annotations

from repro.analysis.flags import checks_enabled
from repro.analysis.violations import (
    CheckReport,
    InvariantViolationError,
    Violation,
)

#: attribute name -> defining submodule, resolved on first access.
_LAZY = {
    "dwarf_check": "repro.analysis.dwarf_check",
    "structural_signature": "repro.analysis.dwarf_check",
    "delta_check": "repro.analysis.delta_check",
    "btree_check": "repro.analysis.btree_check",
    "sstable_check": "repro.analysis.sstable_check",
    "columnfamily_check": "repro.analysis.sstable_check",
    "heap_check": "repro.analysis.heap_check",
    "mapping_check": "repro.analysis.mapping_check",
    "CheckRunner": "repro.analysis.runner",
    "runtime_check": "repro.analysis.runner",
    "run_lint": "repro.analysis.lint",
    "lint_file": "repro.analysis.lint",
    "build_cfg": "repro.analysis.cfg",
    "functions_in": "repro.analysis.cfg",
    "dominators": "repro.analysis.cfg",
    "solve": "repro.analysis.dataflow",
    "ReachingDefinitions": "repro.analysis.dataflow",
    "LiveVariables": "repro.analysis.dataflow",
    "build_import_graph": "repro.analysis.imports",
    "layering_violations": "repro.analysis.imports",
    "import_cycles": "repro.analysis.imports",
    "load_baseline": "repro.analysis.baseline",
    "apply_baseline": "repro.analysis.baseline",
    "write_baseline": "repro.analysis.baseline",
    "sarif_report": "repro.analysis.sarif",
    "sarif_dumps": "repro.analysis.sarif",
}

__all__ = [
    "CheckReport",
    "CheckRunner",
    "InvariantViolationError",
    "LiveVariables",
    "ReachingDefinitions",
    "Violation",
    "apply_baseline",
    "btree_check",
    "build_cfg",
    "build_import_graph",
    "checks_enabled",
    "columnfamily_check",
    "delta_check",
    "dominators",
    "dwarf_check",
    "functions_in",
    "heap_check",
    "import_cycles",
    "layering_violations",
    "lint_file",
    "load_baseline",
    "mapping_check",
    "run_lint",
    "runtime_check",
    "sarif_dumps",
    "sarif_report",
    "solve",
    "sstable_check",
    "structural_signature",
    "write_baseline",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
