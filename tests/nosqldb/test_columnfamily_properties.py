"""Property-based column-family invariants.

The column family must behave like a dict keyed by primary key, whatever
sequence of inserts, overwrites, deletes and flushes arrives — across
memtables, sealed-but-unbuilt memtables, SSTables and compactions.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.nosqldb.columnfamily import Column, ColumnFamily
from repro.nosqldb.types import parse_type

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "flush", "seal"]),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=-1000, max_value=1000),
    ),
    max_size=120,
)


def make_cf() -> ColumnFamily:
    return ColumnFamily(
        "t",
        [Column("id", parse_type("int")), Column("m", parse_type("int"))],
        "id",
    )


@given(ops=ops_strategy)
@settings(max_examples=80, deadline=None)
def test_matches_reference_dict(ops):
    cf = make_cf()
    reference = {}
    for op, key, value in ops:
        if op == "insert":
            cf.insert({"id": key, "m": value})
            reference[key] = value
        elif op == "delete":
            cf.delete(key)
            reference.pop(key, None)
        elif op == "flush":
            cf.flush()
        else:
            cf.seal_memtable()
    # point reads
    for key in range(31):
        row = cf.get(key)
        if key in reference:
            assert row is not None and row["m"] == reference[key]
        else:
            assert row is None
    # full scan
    assert {r["id"]: r["m"] for r in cf.scan()} == reference
    assert len(cf) == len(reference)


@given(ops=ops_strategy)
@settings(max_examples=40, deadline=None)
def test_secondary_index_always_consistent(ops):
    cf = make_cf()
    cf.create_index("m_idx", "m")
    reference = {}
    for op, key, value in ops:
        if op == "insert":
            cf.insert({"id": key, "m": value})
            reference[key] = value
        elif op == "delete":
            cf.delete(key)
            reference.pop(key, None)
        elif op == "flush":
            cf.flush()
        else:
            cf.seal_memtable()
    values = set(reference.values())
    for value in list(values)[:10]:
        expected = {k for k, v in reference.items() if v == value}
        got = {row["id"] for batch in cf.get_batches((value,), index="m") for row in batch.rows()}
        assert got == expected
