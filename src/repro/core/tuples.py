"""Fact tuples: the input format of DWARF construction.

The paper (Fig. 1) feeds the cube builder a list of tuples of the form
``(dimension_1, ..., dimension_n, measure)``.  :class:`FactTuple` is a thin
immutable wrapper over that shape and :class:`TupleSet` is a validated,
sortable collection of them bound to a :class:`~repro.core.schema.CubeSchema`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

from repro.core.errors import TupleShapeError
from repro.core.schema import CubeSchema

Number = Union[int, float]
DimensionKey = Union[str, int]


class FactTuple:
    """One fact: an ordered dimension-key vector plus a numeric measure."""

    __slots__ = ("keys", "measure")

    def __init__(self, keys: Sequence[DimensionKey], measure: Number) -> None:
        self.keys: Tuple[DimensionKey, ...] = tuple(keys)
        self.measure = measure

    @classmethod
    def from_row(cls, row: Sequence) -> "FactTuple":
        """Build from a flat ``(d1, ..., dn, measure)`` row as in Fig. 1."""
        if len(row) < 2:
            raise TupleShapeError(f"fact row needs >=1 dimension and a measure, got {row!r}")
        return cls(tuple(row[:-1]), row[-1])

    def as_row(self) -> Tuple:
        """Flatten back to the paper's ``(d1, ..., dn, measure)`` shape."""
        return self.keys + (self.measure,)

    def __len__(self) -> int:
        return len(self.keys)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FactTuple)
            and self.keys == other.keys
            and self.measure == other.measure
        )

    def __hash__(self) -> int:
        return hash((self.keys, self.measure))

    def __repr__(self) -> str:
        inner = ", ".join(repr(k) for k in self.as_row())
        return f"FactTuple({inner})"


class TupleSet:
    """A schema-validated collection of fact tuples.

    DWARF construction requires its input sorted by dimension order; the
    builder calls :meth:`sorted` rather than assuming the caller did.  Keys
    of mixed types within one dimension are ordered by ``(type name, value)``
    so that heterogeneous smart-city feeds still sort deterministically.
    """

    __slots__ = ("schema", "_tuples", "_known_sorted")

    def __init__(self, schema: CubeSchema, tuples: Iterable = ()) -> None:
        self.schema = schema
        self._tuples: List[FactTuple] = []
        # True once this set has been verified (or constructed) in sorted
        # order; reset by mutation.  Lets repeated builds over one sorted
        # set skip the O(n·d) re-verification.
        self._known_sorted = False
        self.extend(tuples)

    # -- mutation ----------------------------------------------------------
    def append(self, item: Union[FactTuple, Sequence]) -> None:
        fact = item if isinstance(item, FactTuple) else FactTuple.from_row(item)
        if len(fact) != self.schema.n_dimensions:
            raise TupleShapeError(
                f"schema {self.schema.name!r} expects {self.schema.n_dimensions} "
                f"dimensions, tuple has {len(fact)}: {fact!r}"
            )
        self._tuples.append(fact)
        self._known_sorted = False

    def extend(self, items: Iterable) -> None:
        for item in items:
            self.append(item)

    # -- access -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[FactTuple]:
        return iter(self._tuples)

    def __getitem__(self, index: int) -> FactTuple:
        return self._tuples[index]

    def rows(self) -> Iterator[Tuple]:
        """Iterate the flat ``(d1, ..., dn, measure)`` rows."""
        return (fact.as_row() for fact in self._tuples)

    def sorted(self) -> "TupleSet":
        """Return a new TupleSet ordered by dimension keys (root first).

        Sorting decorates each fact with memoised member keys (see
        :func:`member_sort_key`): feeds repeat the same members millions of
        times, and sharing one key tuple per distinct member makes tuple
        comparisons hit CPython's identity fast path instead of re-comparing
        equal strings.
        """
        key_of = make_member_key_memo()
        decorated = sorted(
            (tuple(map(key_of, fact.keys)), index, fact)
            for index, fact in enumerate(self._tuples)
        )
        clone = TupleSet(self.schema)
        clone._tuples = [fact for _, _, fact in decorated]
        clone._known_sorted = True
        return clone

    def is_sorted(self) -> bool:
        if self._known_sorted:
            return True
        key_of = make_member_key_memo()
        previous = None
        for fact in self._tuples:
            current = tuple(map(key_of, fact.keys))
            if previous is not None and current < previous:
                return False
            previous = current
        self._known_sorted = True
        return True

    def __repr__(self) -> str:
        return f"TupleSet(schema={self.schema.name!r}, n={len(self)})"


def member_sort_key(key) -> Tuple[str, object]:
    """Total order for dimension members of possibly mixed types.

    Members order by ``(type name, value)`` so heterogeneous feeds sort
    deterministically.  Float NaN — the one value unequal to itself —
    would otherwise poison comparison sorts, so every NaN collapses onto
    a single key that orders after all ordinary floats.
    """
    if key != key:  # NaN is the only scalar that is unequal to itself
        return (type(key).__name__ + "~nan", 0)
    return (type(key).__name__, key)


def canonical_member(member):
    """``member``, or :data:`math.nan` when ``member`` is a NaN.

    NaN is unequal to itself and hashes by identity, so two NaN objects
    would be two dictionary keys: two cells for one member.  Construction,
    the merge key union, reload and query entry all pass members through
    this, so a dimension holds at most one NaN cell and a query finds it.
    """
    return math.nan if member != member else member


def make_member_key_memo():
    """A memoising ``member_sort_key``: one shared key tuple per member.

    The memo is two-level (type name, then value) because a flat dict
    would collapse ``1``, ``1.0`` and ``True`` onto one entry.
    """
    memos: dict = {}

    def key_of(member):
        inner = memos.get(type(member).__name__)
        if inner is None:
            inner = memos[type(member).__name__] = {}
        cached = inner.get(member)
        if cached is None:
            cached = inner[member] = member_sort_key(member)
        return cached

    return key_of


def _sort_key(keys: Sequence[DimensionKey]) -> Tuple:
    """Total order over possibly mixed-type dimension keys."""
    return tuple(member_sort_key(k) for k in keys)
