"""Paper-versus-measured reporting for the benchmark harness.

``repro bench`` prints Tables 4 and 5 in the paper's layout (schemas
as rows, datasets as columns) with the published values beside this
run's, so the shape comparison is immediate.
"""

from __future__ import annotations

from typing import Dict, Sequence


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Dict[str, Sequence[object]],
    note: str = "",
) -> str:
    """Render one paper-style table: row labels x dataset columns."""
    label_width = max(len(label) for label in list(rows) + [title])
    col_width = max(8, max(len(c) for c in columns) + 1)
    lines = [title]
    header = " " * label_width + "".join(f"{c:>{col_width}}" for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for label, values in rows.items():
        cells = "".join(f"{_fmt(v):>{col_width}}" for v in values)
        lines.append(f"{label:<{label_width}}{cells}")
    if note:
        lines.append(note)
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}" if value < 100 else f"{value:.0f}"
    return str(value)
