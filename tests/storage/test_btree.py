"""B-tree invariants: ordering, splits, deletes, page accounting."""

import bisect

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.storage.btree import BTree, _Internal, _Leaf, encode_key
from repro.storage.encoding import encode_bytes
from repro.storage.varint import encode_varint


class TestBasics:
    def test_insert_and_get(self):
        tree = BTree()
        tree.insert(5, b"five")
        assert tree.get(5) == b"five"
        assert tree.get(6) is None

    def test_get_default(self):
        assert BTree().get(1, b"dflt") == b"dflt"

    def test_overwrite_same_key(self):
        tree = BTree()
        tree.insert(1, b"a")
        tree.insert(1, b"b")
        assert tree.get(1) == b"b"
        assert len(tree) == 1

    def test_contains(self):
        tree = BTree()
        tree.insert("k", None)
        assert "k" in tree
        assert "x" not in tree

    def test_value_may_be_none(self):
        tree = BTree()
        tree.insert(("v", 1))
        assert ("v", 1) in tree
        assert tree.get(("v", 1)) is None


class TestOrderingAndSplits:
    def test_items_sorted_after_random_inserts(self):
        tree = BTree(page_capacity=8)
        import random

        rng = random.Random(7)
        keys = list(range(500))
        rng.shuffle(keys)
        for key in keys:
            tree.insert(key, str(key).encode())
        assert [k for k, _ in tree.items()] == list(range(500))
        assert len(tree) == 500

    def test_range_scan(self):
        tree = BTree(page_capacity=4)
        for key in range(100):
            tree.insert(key)
        assert list(tree.keys(lo=10, hi=15)) == [10, 11, 12, 13, 14, 15]

    def test_range_scan_open_start(self):
        tree = BTree(page_capacity=4)
        for key in range(20):
            tree.insert(key)
        assert list(tree.keys(hi=3)) == [0, 1, 2, 3]

    def test_range_scan_missing_bounds(self):
        tree = BTree(page_capacity=4)
        for key in (1, 3, 5, 7, 9, 11):
            tree.insert(key)
        assert list(tree.keys(lo=2, hi=8)) == [3, 5, 7]

    def test_page_counts_grow(self):
        tree = BTree(page_capacity=4)
        for key in range(100):
            tree.insert(key)
        leaves, internals = tree.page_counts
        assert leaves > 10
        assert internals >= 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BTree(page_capacity=2)


class TestDelete:
    def test_delete_present(self):
        tree = BTree(page_capacity=4)
        for key in range(50):
            tree.insert(key)
        assert tree.delete(25)
        assert 25 not in tree
        assert len(tree) == 49
        assert 25 not in list(tree.keys())

    def test_delete_absent(self):
        tree = BTree()
        tree.insert(1)
        assert not tree.delete(99)
        assert len(tree) == 1


class TestSizeAccounting:
    def test_size_grows_with_entries(self):
        tree = BTree()
        empty = tree.size_bytes
        for key in range(1000):
            tree.insert(key, b"x" * 20)
        assert tree.size_bytes > empty + 1000 * 20

    def test_write_through_keeps_pages_encoded(self):
        tree = BTree(page_capacity=8, write_through=True)
        for key in range(100):
            tree.insert(key, b"v")
        # no flush needed: every leaf already encoded
        leaf = tree._first_leaf
        while leaf is not None:
            assert not leaf.dirty
            leaf = leaf.next

    def test_lazy_mode_dirty_until_flush(self):
        tree = BTree(page_capacity=8)
        tree.insert(1, b"v")
        assert tree._first_leaf.dirty
        tree.flush()
        assert not tree._first_leaf.dirty


class TestEncodeKey:
    @pytest.mark.parametrize(
        "key", [None, True, False, 0, -17, 2 ** 40, "text", b"raw", (1, "a"), ((1, 2), "b")]
    )
    def test_supported_types(self, key):
        assert isinstance(encode_key(key), bytes)

    def test_bool_distinct_from_int(self):
        assert encode_key(True) != encode_key(1)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            encode_key(object())


class TestPropertyVsDict:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "new", "del"]),
                st.integers(min_value=0, max_value=60),
            ),
            max_size=200,
        ),
        write_through=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_dict(self, ops, write_through):
        tree = BTree(page_capacity=4, write_through=write_through)
        reference = {}
        for step, (op, key) in enumerate(ops):
            value = f"{key}@{step}".encode()
            if op == "put":
                tree.insert(key, value)
                reference[key] = value
            elif op == "new":
                assert tree.insert_new(key, value) == (key not in reference)
                reference.setdefault(key, value)
            else:
                tree.delete(key)
                reference.pop(key, None)
        assert dict(tree.items()) == reference
        assert [k for k, _ in tree.items()] == sorted(reference)
        assert len(tree) == len(reference)


# ----------------------------------------------------------------------
# the one insert descent against the recursive insert it replaced
# ----------------------------------------------------------------------
def frozen_insert(tree, key, value=None):
    """``BTree.insert`` as it stood: a recursive descent that splits on
    the way back up."""

    def insert(node):
        if isinstance(node, _Leaf):
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index] = value
            else:
                node.keys.insert(index, key)
                node.values.insert(index, value)
                tree._n_entries += 1
            node.dirty = True
            split = tree._split_leaf(node) if len(node.keys) > tree._capacity else None
            if tree._write_through:
                node.encode()
                if split is not None:
                    split[1].encode()
            return split
        index = bisect.bisect_right(node.keys, key)
        split = insert(node.children[index])
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        return tree._split_internal(node) if len(node.children) > tree._capacity else None

    split = insert(tree._root)
    if split is not None:
        root = _Internal()
        root.keys = [split[0]]
        root.children = [tree._root, split[1]]
        tree._root = root
        tree._n_internal += 1


def image(tree):
    """Every page: its keys, values, ``dirty`` flag and encoded bytes,
    separators and the tree's counts — what a write may change."""

    def node_image(node):
        if isinstance(node, _Internal):
            return ("internal", list(node.keys), [node_image(child) for child in node.children])
        return ("leaf", list(node.keys), list(node.values), node.dirty, node.encoded)

    return node_image(tree._root), tree.page_counts, len(tree)


class TestOneDescent:
    @given(keys=st.lists(st.integers(-500, 500), unique=True, max_size=300),
           capacity=st.integers(4, 9), write_through=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_new_keys_split_as_the_recursive_insert_did(self, keys, capacity, write_through):
        trees = [BTree(page_capacity=capacity, write_through=write_through) for _ in range(3)]
        for key in keys:
            frozen_insert(trees[0], key, b"%d" % key)
            trees[1].insert(key, b"%d" % key)
            assert trees[2].insert_new(key, b"%d" % key)
        assert image(trees[1]) == image(trees[0]) == image(trees[2])
        assert trees[1].size_bytes == trees[0].size_bytes == trees[2].size_bytes

    @given(keys=st.lists(st.integers(-50, 50), unique=True, min_size=1, max_size=120),
           data=st.data(), write_through=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_a_refused_duplicate_touches_no_page(self, keys, data, write_through):
        tree = BTree(page_capacity=4, write_through=write_through)
        for key in keys:
            tree.insert(key, b"old")
        if data.draw(st.booleans()):
            tree.flush()
        before = image(tree)
        assert not tree.insert_new(data.draw(st.sampled_from(keys)), b"new")
        assert image(tree) == before


# ----------------------------------------------------------------------
# the leaf page image: the int and int-tuple paths against encode_key
# ----------------------------------------------------------------------
SCALAR_KEYS = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
               | st.floats(allow_nan=False) | st.binary(max_size=4))
ANY_KEY = st.recursive(SCALAR_KEYS, lambda inner: st.lists(inner, max_size=3).map(tuple),
                       max_leaves=6)
INT_TUPLE = st.lists(st.integers(), max_size=3).map(tuple)


@given(keys=st.lists(st.integers()) | st.lists(INT_TUPLE) | st.lists(ANY_KEY),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_leaf_image_matches_encode_key(keys, data):
    leaf = _Leaf()
    leaf.keys = keys
    leaf.values = data.draw(st.lists(st.none() | st.binary(max_size=5),
                                     min_size=len(keys), max_size=len(keys)))
    expected = encode_varint(len(keys)) + b"".join(
        encode_key(key) + (b"\x00" if value is None else encode_bytes(value))
        for key, value in zip(leaf.keys, leaf.values)
    )
    assert leaf.encode() == expected and not leaf.dirty
