"""An in-memory B-tree with page encoding and realistic maintenance costs.

Used as:

* the clustered primary index of the relational engine (InnoDB-style:
  rows live in the leaf pages, pages are encoded lazily on flush — the
  buffer-pool model);
* the secondary indexes of both engines.  The NoSQL engine opens its
  secondary indexes with ``write_through=True``: every insert re-encodes
  the touched leaf page immediately, modelling the synchronous index
  update path that makes Cassandra secondary indexes expensive — the
  effect behind the paper's NoSQL-Min insertion times (Table 5).

Keys must be mutually comparable (the engines compose homogeneous key
tuples).  Keys are unique: :meth:`BTree.insert` overwrites an existing
key's value, :meth:`BTree.insert_new` refuses it in the same descent.
"""

from __future__ import annotations

import bisect
from itertools import chain
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.storage.encoding import (
    encode_bool,
    encode_bytes,
    encode_float,
    encode_text,
)
from repro.storage.varint import encode_varint
from repro.telemetry import get_registry

_REGISTRY = get_registry()
_M_SPLITS = _REGISTRY.counter(
    "btree_page_splits_total", "B-tree page splits", labels=("kind",)
)
_M_PAGES = _REGISTRY.counter(
    "btree_pages_allocated_total", "B-tree pages allocated", labels=("kind",)
)
_M_SPLITS_LEAF = _M_SPLITS.labels("leaf")
_M_SPLITS_INTERNAL = _M_SPLITS.labels("internal")
_M_PAGES_LEAF = _M_PAGES.labels("leaf")
_M_PAGES_INTERNAL = _M_PAGES.labels("internal")

#: Maximum entries per page before a split (both leaf and internal).
DEFAULT_PAGE_CAPACITY = 64

#: Fixed per-page header: page id, type tag, entry count, next-page pointer.
PAGE_HEADER_BYTES = 16

_INT = frozenset((int,))
_TUPLE = frozenset((tuple,))


def encode_key(key) -> bytes:
    """Tagged, self-describing encoding for index keys.

    Raises TypeError for key types no engine produces.
    """
    if key is None:
        return b"\x00"
    if isinstance(key, bool):  # must precede int
        return b"\x04" + encode_bool(key)
    if isinstance(key, int):
        return b"\x01" + encode_varint(key)
    if isinstance(key, str):
        return b"\x02" + encode_text(key)
    if isinstance(key, float):
        return b"\x03" + encode_float(key)
    if isinstance(key, bytes):
        return b"\x06" + encode_bytes(key)
    if isinstance(key, tuple):
        parts = [b"\x05", encode_varint(len(key))]
        parts.extend(encode_key(item) for item in key)
        return b"".join(parts)
    raise TypeError(f"unsupported index key type: {type(key).__name__}")


def decode_key(buffer, offset: int = 0) -> Tuple[object, int]:
    """Inverse of :func:`encode_key`; returns ``(key, end_offset)``.

    Raises ValueError for a corrupt key tag.
    """
    from repro.storage.encoding import (
        decode_bool,
        decode_bytes,
        decode_float,
        decode_text,
    )
    from repro.storage.varint import decode_varint

    tag = buffer[offset]
    offset += 1
    if tag == 0x00:
        return None, offset
    if tag == 0x01:
        return decode_varint(buffer, offset)
    if tag == 0x02:
        return decode_text(buffer, offset)
    if tag == 0x03:
        return decode_float(buffer, offset)
    if tag == 0x04:
        return decode_bool(buffer, offset)
    if tag == 0x06:
        return decode_bytes(buffer, offset)
    if tag == 0x05:
        count, offset = decode_varint(buffer, offset)
        items = []
        for _ in range(count):
            item, offset = decode_key(buffer, offset)
            items.append(item)
        return tuple(items), offset
    raise ValueError(f"corrupt key tag 0x{tag:02x}")


class _Leaf:
    __slots__ = ("keys", "values", "next", "encoded", "dirty")

    def __init__(self) -> None:
        self.keys: List = []
        self.values: List[Optional[bytes]] = []
        self.next: Optional["_Leaf"] = None
        self.encoded: bytes = b""
        self.dirty = True

    def encode(self) -> bytes:
        """The page image: entry count, then each key's
        :func:`encode_key` bytes and its value.  A page of ``int`` keys,
        or of non-empty tuples of ``int``, has its keys encoded without
        the recursive tag dispatch, to the same bytes."""
        keys, values = self.keys, self.values
        kinds = set(map(type, keys))
        if kinds == _INT:
            encoded_keys = [b"\x01" + item for item in map(encode_varint, keys)]
        elif kinds == _TUPLE and all(keys) and set(map(type, chain.from_iterable(keys))) == _INT:
            encoded_keys = [
                b"\x05" + encode_varint(len(key)) + b"\x01" + b"\x01".join(map(encode_varint, key))
                for key in keys
            ]
        else:
            encoded_keys = list(map(encode_key, keys))
        encoded_values = [
            b"\x00" if value is None else encode_varint(len(value)) + value for value in values
        ]
        self.encoded = encode_varint(len(keys)) + b"".join(
            chain.from_iterable(zip(encoded_keys, encoded_values))
        )
        self.dirty = False
        return self.encoded


class BTreeStats(NamedTuple):
    """A read-only structural summary of one :class:`BTree`.

    Gathered without flushing or encoding anything, so probing stats never
    changes what the size accounting observes afterwards.
    """

    entries: int
    depth: int           # 1 for a single-leaf tree
    leaf_pages: int
    internal_pages: int
    page_capacity: int

    @property
    def fill_ratio(self) -> float:
        """Mean entries per leaf page relative to the split capacity."""
        if not self.leaf_pages:
            return 0.0
        return self.entries / (self.leaf_pages * self.page_capacity)


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # children[i] covers keys < keys[i]; children[-1] covers the rest.
        self.keys: List = []
        self.children: List = []


class BTree:
    """B-tree map with byte-accurate page accounting.

    Parameters
    ----------
    page_capacity:
        Entries per page before splitting.
    write_through:
        Re-encode a leaf page on *every* mutation (synchronous index
        maintenance).  When False, pages are encoded lazily by
        :meth:`flush` (buffer-pool behaviour).
    """

    def __init__(
        self,
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
        write_through: bool = False,
    ) -> None:
        if page_capacity < 4:
            raise ValueError("page_capacity must be >= 4")
        self._capacity = page_capacity
        self._write_through = write_through
        self._root = _Leaf()
        self._first_leaf: _Leaf = self._root
        self._n_entries = 0
        self._n_leaves = 1
        self._n_internal = 0
        _M_PAGES_LEAF.inc()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, key, value: Optional[bytes] = None) -> None:
        """Insert or overwrite ``key``; ``value`` is an opaque payload."""
        self._put(key, value, True)

    def insert_new(self, key, value: Optional[bytes] = None) -> bool:
        """Insert ``key`` unless it is present; returns False, with every
        page left untouched, when it is."""
        return self._put(key, value, False)

    def _put(self, key, value, overwrite: bool) -> bool:
        """The one insert descent: root to leaf once, remembering the
        path, then the leaf insert and any splits carried back up it.
        Returns True when ``key`` was new; an existing key is overwritten
        when ``overwrite`` is set and left untouched otherwise."""
        node = self._root
        path = []
        while type(node) is _Internal:
            index = bisect.bisect_right(node.keys, key)
            path.append((node, index))
            node = node.children[index]
        keys = node.keys
        index = bisect.bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            if not overwrite:
                return False
            node.values[index] = value
            node.dirty = True
            if self._write_through:
                node.encode()
            return False
        keys.insert(index, key)
        node.values.insert(index, value)
        self._n_entries += 1
        node.dirty = True
        if len(keys) <= self._capacity:
            if self._write_through:
                node.encode()
            return True
        separator, right = self._split_leaf(node)
        if self._write_through:
            node.encode()
            right.encode()
        for parent, index in reversed(path):
            parent.keys.insert(index, separator)
            parent.children.insert(index + 1, right)
            if len(parent.children) <= self._capacity:
                return True
            separator, right = self._split_internal(parent)
        new_root = _Internal()
        new_root.keys = [separator]
        new_root.children = [self._root, right]
        self._root = new_root
        self._n_internal += 1
        _M_PAGES_INTERNAL.inc()
        return True

    def _split_leaf(self, leaf: _Leaf) -> Tuple[object, _Leaf]:
        middle = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        right.next = leaf.next
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        leaf.next = right
        leaf.dirty = True
        right.dirty = True
        self._n_leaves += 1
        _M_SPLITS_LEAF.inc()
        _M_PAGES_LEAF.inc()
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> Tuple[object, _Internal]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Internal()
        right.keys = node.keys[middle + 1:]
        right.children = node.children[middle + 1:]
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        self._n_internal += 1
        _M_SPLITS_INTERNAL.inc()
        _M_PAGES_INTERNAL.inc()
        return separator, right

    def delete(self, key) -> bool:
        """Remove ``key``; returns True when it was present.

        Pages are allowed to underflow (no rebalancing) — deletions are
        rare in this workload and InnoDB likewise leaves sparse pages
        behind until OPTIMIZE.
        """
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return False
        del leaf.keys[index]
        del leaf.values[index]
        leaf.dirty = True
        if self._write_through:
            leaf.encode()
        self._n_entries -= 1
        return True

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def _find_leaf(self, key) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[bisect.bisect_right(node.keys, key)]
        return node

    def get(self, key, default=None):
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return default

    def __contains__(self, key) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def items(self, lo=None, hi=None) -> Iterator[Tuple[object, Optional[bytes]]]:
        """Yield ``(key, value)`` in key order, optionally within [lo, hi]."""
        if lo is None:
            leaf: Optional[_Leaf] = self._first_leaf
            index = 0
        else:
            leaf = self._find_leaf(lo)
            index = bisect.bisect_left(leaf.keys, lo)
        while leaf is not None:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if hi is not None and key > hi:
                    return
                yield key, leaf.values[index]
                index += 1
            leaf = leaf.next
            index = 0

    def keys(self, lo=None, hi=None) -> Iterator:
        return (key for key, _ in self.items(lo, hi))

    def leaves(self) -> Iterator[Tuple[List, List[Optional[bytes]]]]:
        """Yield each leaf page's ``(keys, values)`` lists in key order —
        the page-at-a-time twin of :meth:`items` (the lists are the
        page's own: read them, do not keep or mutate them)."""
        leaf = self._first_leaf
        while leaf is not None:
            if leaf.keys:
                yield leaf.keys, leaf.values
            leaf = leaf.next

    def __len__(self) -> int:
        return self._n_entries

    # ------------------------------------------------------------------
    # storage accounting
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Encode every dirty leaf page (buffer-pool flush)."""
        leaf: Optional[_Leaf] = self._first_leaf
        while leaf is not None:
            if leaf.dirty:
                leaf.encode()
            leaf = leaf.next

    @property
    def size_bytes(self) -> int:
        """On-disk size: encoded leaf pages + headers + internal pages.

        Internal pages are charged one encoded separator key per child
        plus the page header.
        """
        self.flush()
        total = 0
        leaf: Optional[_Leaf] = self._first_leaf
        while leaf is not None:
            total += PAGE_HEADER_BYTES + len(leaf.encoded)
            leaf = leaf.next
        total += self._internal_bytes(self._root)
        return total

    def _internal_bytes(self, node) -> int:
        if isinstance(node, _Leaf):
            return 0
        total = PAGE_HEADER_BYTES
        for key in node.keys:
            total += len(encode_key(key)) + 8  # separator + child pointer
        total += 8  # last child pointer
        for child in node.children:
            total += self._internal_bytes(child)
        return total

    @property
    def page_counts(self) -> Tuple[int, int]:
        """``(leaf_pages, internal_pages)`` currently allocated."""
        return self._n_leaves, self._n_internal

    def stats(self) -> BTreeStats:
        """A read-only :class:`BTreeStats` snapshot (no flush, no encode)."""
        depth = 1
        node = self._root
        while isinstance(node, _Internal):
            depth += 1
            node = node.children[0]
        return BTreeStats(
            entries=self._n_entries,
            depth=depth,
            leaf_pages=self._n_leaves,
            internal_pages=self._n_internal,
            page_capacity=self._capacity,
        )

    def __repr__(self) -> str:
        return (
            f"BTree(entries={self._n_entries}, depth={self.stats().depth}, "
            f"pages={self._n_leaves}+{self._n_internal})"
        )
