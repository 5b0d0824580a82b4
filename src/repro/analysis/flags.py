"""The ``REPRO_CHECK`` runtime gate.

Its top level must stay dependency-free (stdlib ``os`` only): the hot-path
hooks in :mod:`repro.dwarf.builder` and both session modules import it at
module load, long before the checker modules — which import those same
engine modules — are safe to pull in.
"""

from __future__ import annotations

import os

#: Values of ``REPRO_CHECK`` that leave the checkers disabled.
_DISABLED = ("", "0", "false", "no", "off")


def checks_enabled() -> bool:
    """True when runtime invariant checking is switched on.

    Controlled by the ``REPRO_CHECK`` environment variable, mirroring how
    ``REPRO_SCALE`` configures the harness: any value other than
    empty/``0``/``false``/``no``/``off`` enables the sanitizer-style hooks
    in the DWARF builder, the delta merge and both engine sessions.
    """
    return os.environ.get("REPRO_CHECK", "").strip().lower() not in _DISABLED


def check_tables(tables, label: str) -> None:
    """The sessions' ``REPRO_CHECK=1`` post-bulk hook: after a bulk write
    every table in ``tables`` (SSTables and commit-log agreement, or heap,
    clustered tree and secondary indexes) must be sound.

    Raises :class:`~repro.analysis.violations.InvariantViolationError` on
    any violation; a no-op when checking is disabled.
    """
    if checks_enabled():
        # Imported here, not at module load: the checkers import the
        # engine modules whose sessions import this one.
        from repro.analysis.runner import runtime_check

        for table in tables:
            runtime_check(table, label=label)
