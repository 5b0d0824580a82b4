"""REPRO003 — dict-iteration-order-dependent hashing in cube code.

In cube-hashing code (``dwarf/``, ``mapping/``, ``analysis/``), feeding
``.keys()``/``.values()``/``.items()`` into ``hash()`` or
``frozenset()`` without ``sorted()`` makes signatures depend on dict
insertion order — exactly the bug the merge == rebuild signature
checks exist to rule out.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.lint.context import FileContext
from repro.analysis.lint.registry import rule

#: Path fragments (posix) whose files REPRO003 applies to.
_ORDER_SENSITIVE_PARTS = ("/dwarf/", "/mapping/", "/analysis/")


def _view_calls(node: ast.AST) -> Iterable[ast.Call]:
    """``.keys()``/``.values()``/``.items()`` calls in ``node``'s subtree."""
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr in ("keys", "values", "items")
            and not child.args and not child.keywords
        ):
            yield child


@rule("REPRO003", "dict-order-hash",
      "hash()/frozenset() over an unsorted dict view in cube code")
def check_dict_order_hash(ctx: FileContext) -> None:
    if not any(part in ctx.posix for part in _ORDER_SENSITIVE_PARTS):
        return
    sorted_views = set()
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
        ):
            for view in _view_calls(node):
                sorted_views.add(id(view))
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("hash", "frozenset")
        ):
            continue
        ctx.record()
        for view in _view_calls(node):
            if id(view) not in sorted_views:
                ctx.add(
                    "REPRO003", node.lineno,
                    f"{node.func.id}() over a dict .{view.func.attr}() view "
                    "depends on insertion order; wrap the view in sorted() "
                    "so cube signatures are canonical",
                )
