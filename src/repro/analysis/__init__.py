"""Cross-layer invariant checkers.

Sanitizer-style runtime checkers for every storage structure in the
reproduction (DWARF cubes, B-trees, SSTables, column families, heap
tables, bi-directional mappers) and a :class:`CheckRunner` facade over
them, surfaced through ``repro check`` and, at runtime, the
``REPRO_CHECK=1`` environment flag.  The source rules (layering, raw
clocks, lock discipline, catalogued telemetry names) are AST contracts
in ``tests/analysis/test_repo_contracts.py``, not part of this package.

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
}

__all__ = [
    "CheckReport",
    "CheckRunner",
    "InvariantViolationError",
    "Violation",
    "btree_check",
    "checks_enabled",
    "columnfamily_check",
    "delta_check",
    "dwarf_check",
    "heap_check",
    "mapping_check",
    "runtime_check",
    "sstable_check",
    "structural_signature",
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
