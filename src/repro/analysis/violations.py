"""Structured violation reports shared by every checker.

A checker never raises on the structure it inspects — it returns a
:class:`CheckReport` full of :class:`Violation` records so that callers
(the ``repro check`` CLI, the ``REPRO_CHECK=1`` runtime hooks, tests)
decide whether to print, fail the build, or raise.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple

from repro.core.errors import ReproError


class InvariantViolationError(ReproError):
    """One or more structural invariants do not hold.

    Raised by :meth:`CheckReport.raise_if_violations` — and therefore by
    the ``REPRO_CHECK=1`` hooks — with the offending :class:`Violation`
    records attached as :attr:`violations`.
    """

    def __init__(self, violations: List["Violation"]) -> None:
        self.violations = list(violations)
        lines = [violation.format() for violation in self.violations[:10]]
        if len(self.violations) > 10:
            lines.append(f"... and {len(self.violations) - 10} more")
        count = len(self.violations)
        plural = "" if count == 1 else "s"
        super().__init__(
            f"{count} invariant violation{plural}:\n" + "\n".join(lines)
        )


class Violation(NamedTuple):
    """One broken invariant.

    Attributes
    ----------
    checker:
        The checker family that found it (``dwarf``, ``btree``,
        ``sstable``, ``heap``, ``mapping``).
    rule:
        Stable rule identifier, e.g. ``dwarf.all-aggregate``.
    location:
        Where: a structural path such as ``node@L2[key='Dublin']``.
    message:
        Human-readable description of what is wrong.
    """

    checker: str
    rule: str
    location: str
    message: str

    def format(self) -> str:
        return f"[{self.rule}] {self.location}: {self.message}"


class CheckReport:
    """The outcome of running one (or several merged) checkers.

    ``n_checks`` counts individual invariant evaluations so that a clean
    report is distinguishable from a checker that never ran.
    """

    __slots__ = ("name", "violations", "n_checks")

    def __init__(self, name: str) -> None:
        self.name = name
        self.violations: List[Violation] = []
        self.n_checks = 0

    # ------------------------------------------------------------------
    def add(self, checker: str, rule: str, location: str, message: str) -> None:
        """Record one violation."""
        self.violations.append(Violation(checker, rule, location, message))

    def record(self, n: int = 1) -> None:
        """Count ``n`` invariant evaluations (violated or not)."""
        self.n_checks += n

    def check(self, condition: bool, checker: str, rule: str, location: str,
              message: str) -> bool:
        """Evaluate one invariant: count it, record a violation on failure."""
        self.n_checks += 1
        if not condition:
            self.add(checker, rule, location, message)
        return condition

    def merge(self, other: "CheckReport") -> "CheckReport":
        """Fold ``other``'s findings into this report."""
        self.violations.extend(other.violations)
        self.n_checks += other.n_checks
        return self

    def extend(self, violations: Iterable[Violation]) -> None:
        self.violations.extend(violations)

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violations(self) -> None:
        """Raise :class:`InvariantViolationError` unless the report is clean."""
        if self.violations:
            raise InvariantViolationError(self.violations)

    def format_lines(self) -> List[str]:
        return [violation.format() for violation in self.violations]

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return f"{self.name}: {self.n_checks} checks, {status}"

    def __repr__(self) -> str:
        return f"CheckReport({self.summary()})"
