"""Compatibility name for the end-to-end benchmark harness.

:class:`~repro.dwarf.builder.DwarfBuilder` is the only DWARF builder.
``benchmarks/e2e/workloads.py`` still imports the name of the deleted
partitioned builder from this module, so the module keeps that name as
an alias of the builder until the harness imports the builder itself.
"""

from repro.dwarf.builder import DwarfBuilder

ParallelDwarfBuilder = DwarfBuilder  # benchmarks/e2e/workloads.py only
