"""The shared expression evaluator.

Both engines' WHERE clauses, ORDER BY keys and aggregate functions boil
down to the three primitives here.  Keeping them in one place is what
makes the differential tests meaningful: a comparison-semantics bug
cannot hide in one engine only.

SQL three-valued logic is approximated the way both executors always
did: a comparison against a NULL operand is false (never true), ``IN``
compares raw values (so ``NULL IN (NULL)`` holds), and aggregates skip
NULLs entirely.

The bind-marker nodes both ASTs share (:class:`Placeholder`,
:class:`SetLiteral`) and their ``resolve(params)`` compilation live here
too, so neither executor carries its own copy.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

#: Comparison operators :func:`compare` accepts, in both dialects'
#: normalised spelling (``<>`` is normalised to ``!=`` at parse time).
COMPARISON_OPS = ("=", "!=", "<", ">", "<=", ">=", "IN", "ISNULL", "NOTNULL")


def compare(op: str, actual, expected) -> bool:
    """Evaluate ``actual OP expected`` with NULL-rejecting semantics.

    ``expected`` is a collection for ``IN`` and ignored for the
    null-test operators.  Unknown operators raise ValueError — engine
    front-ends validate operators at plan-build time, so hitting this at
    run time is a compiler bug, not bad user input.
    """
    if op == "IN":
        return actual in expected
    if op == "ISNULL":
        return actual is None
    if op == "NOTNULL":
        return actual is not None
    if actual is None:
        return False
    if op == "=":
        return actual == expected
    if op == "!=":
        return actual != expected
    if op == "<":
        return actual < expected
    if op == ">":
        return actual > expected
    if op == "<=":
        return actual <= expected
    if op == ">=":
        return actual >= expected
    raise ValueError(f"unsupported comparison operator {op!r}")


class Placeholder:
    """A positional ``?`` bind marker (0-based) in either dialect's AST."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"?{self.index}"


class SetLiteral:
    """A ``{a, b, c}`` collection literal (elements may be placeholders)."""

    __slots__ = ("items",)

    def __init__(self, items: Sequence) -> None:
        self.items = tuple(items)

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(i) for i in self.items) + "}"


def compile_value(value, error: type) -> Callable[[Sequence], object]:
    """A ``resolve(params)`` callable for one literal/placeholder/set.

    ``error`` is the dialect's exception class, raised at bind time when
    the parameter tuple is shorter than the bind marker's position.
    """
    if isinstance(value, Placeholder):
        index = value.index

        def resolve(params: Sequence):
            if index >= len(params):
                raise error(
                    f"statement has bind marker ?{index} but only "
                    f"{len(params)} parameters were supplied"
                )
            return params[index]

        return resolve
    if isinstance(value, SetLiteral):
        items = [compile_value(item, error) for item in value.items]
        return lambda params: {resolve(params) for resolve in items}
    return lambda params: value


def compile_value_list(values, error: type) -> Callable[[Sequence], List[object]]:
    """:func:`compile_value` over an ``IN`` list."""
    resolvers = [compile_value(v, error) for v in values]
    return lambda params: [resolve(params) for resolve in resolvers]


def condition_desc(condition) -> str:
    """EXPLAIN rendering of one WHERE conjunct (``column``/``op``/``value``)."""
    column, op, value = condition.column, condition.op, condition.value
    if op == "ISNULL":
        return f"{column} IS NULL"
    if op == "NOTNULL":
        return f"{column} IS NOT NULL"
    if op == "IN":
        return f"{column} IN ({', '.join(repr(v) for v in value)})"
    return f"{column} {op} {value!r}"


def null_safe_key(value):
    """An ORDER BY sort key that places NULLs last (ascending)."""
    return (value is None, value)


def evaluate_aggregate(func: str, values: Sequence) -> Optional[object]:
    """One aggregate over a group's non-NULL ``values``.

    ``count`` of an empty group is 0; every other aggregate of an empty
    group is NULL, as in SQL.  Unknown functions raise ValueError (the
    parsers only emit the five known ones).
    """
    if func == "count":
        return len(values)
    if not values:
        return None
    if func == "sum":
        return sum(values)
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    if func == "avg":
        return sum(values) / len(values)
    raise ValueError(f"unknown aggregate {func!r}")
