"""A column family behaves like a dict of rows, whatever runs on it.

:class:`ColumnFamilyMachine` is a hypothesis state machine over one
column family with secondary indexes, checked after every step against
a dict-of-rows oracle.  Its steps are every way rows reach or leave the
family — single inserts, ``insert_columns`` chunks (a key repeated
within one chunk, None cells), chunks of ascending keys above every key
written so far, read-modify-write updates, ``delete_keys`` batches,
``truncate`` — and every way they move between layers: seal, flush,
compaction, a crash that loses the memtables followed by commit-log
replay (which rebuilds the indexes from a scan), and a late ``CREATE
INDEX`` (a backfill from a scan).  The row cache is on or off for a
whole run.  :class:`IndexFreeColumnFamilyMachine` runs the same steps
on a table with no index (and no late one), where an ascending chunk is
proven fresh: it skips the liveness probe and leaves its cell columns
with the memtable for the flush (a ``Run``).

After every step each read path answers as the oracle does: the point
read of every key, one ``get_batches`` over several keys (repeats and
absent keys included), the full scan, the index lookup of every live
value of each indexed column, ``len`` and a clean
:func:`~repro.analysis.sstable_check.columnfamily_check`.

The budget comes from the loaded hypothesis profile: tier-1 runs the
small default, ``--hypothesis-profile=deep`` many more runs and steps.

Beside the machine, two flat properties replay one list of inserts,
deletes, flushes and seals and compare the end state with a dict: the
point reads, scan and ``len`` of every key, and the index lookups.
"""

import hypothesis.strategies as st
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.analysis.sstable_check import columnfamily_check
from repro.nosqldb.columnfamily import Column, ColumnFamily
from repro.nosqldb.keyspace import Keyspace
from repro.nosqldb.types import parse_type
from tests.conftest import scan_rows

NAN = float("nan")
KEYS = st.integers(min_value=0, max_value=30)
#: Column name -> the values a cell of it takes (None: no cell).
VALUES = {
    "m": st.none() | st.integers(min_value=-3, max_value=3),
    "x": st.sampled_from([None, 0.0, -0.0, 1.5, NAN]),
    "s": st.none() | st.sampled_from(["a", "b", ""]),
}
COLUMNS = ("id", "m", "x", "s")
TYPES = {"id": "int", "m": "int", "x": "double", "s": "text"}
ROW = st.fixed_dictionaries({name: values for name, values in VALUES.items()})


def canonical(value):
    """A cell as the oracle compares it: a float by its repr, so NaN
    equals NaN and -0.0 differs from 0.0."""
    return repr(value) if isinstance(value, float) else value


def canonical_row(row):
    return tuple(canonical(row.get(name)) for name in COLUMNS)


class ColumnFamilyMachine(RuleBasedStateMachine):
    """A column family beside the dict of rows it must hold."""

    #: Whether the table starts with an index on ``m`` (and may get a
    #: late one on ``x``).
    INDEXED = True

    @initialize(row_cache=st.booleans())
    def start(self, row_cache):
        self.keyspace = Keyspace("k")
        self.cf = ColumnFamily(
            "t", [Column(name, parse_type(TYPES[name])) for name in COLUMNS], "id",
            commit_log=self.keyspace._commit_log, row_cache_bytes=1 << 20 if row_cache else 0,
        )
        self.keyspace._tables["t"] = self.cf
        if self.INDEXED:
            self.cf.create_index("m_idx", "m")
        #: key -> its row's non-None cells, the key included.
        self.rows = {}
        #: The highest key any step has written or deleted.
        self.top = 30

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    @rule(key=KEYS, row=ROW)
    def insert(self, key, row):
        cells = {name: value for name, value in row.items() if value is not None}
        self.cf.insert({"id": key, **cells})
        self.rows[key] = {"id": key, **cells}

    @rule(
        data=st.data(),
        keys=st.lists(KEYS, min_size=1, max_size=12),
        written=st.sets(st.sampled_from(sorted(VALUES))),
    )
    def insert_columns(self, data, keys, written):
        self.write_chunk(data, [*keys, keys[0]], written)  # a key repeated within the chunk

    @rule(
        data=st.data(),
        n=st.integers(min_value=1, max_value=12),
        written=st.sets(st.sampled_from(sorted(VALUES))),
    )
    def insert_ascending(self, data, n, written):
        self.write_chunk(data, list(range(self.top + 1, self.top + 1 + n)), written)
        self.top += n

    def write_chunk(self, data, keys, written):
        names = ["id", *sorted(written)]
        values = [keys] + [
            data.draw(st.lists(VALUES[name], min_size=len(keys), max_size=len(keys)))
            for name in names[1:]
        ]
        assert self.cf.insert_columns([self.cf.column(name) for name in names], values) == len(keys)
        for position, key in enumerate(keys):
            cells = {name: column[position] for name, column in zip(names, values)}
            self.rows[key] = {name: value for name, value in cells.items() if value is not None}

    @rule(key=KEYS, data=st.data())
    def update(self, key, data):
        names = data.draw(st.sets(st.sampled_from(sorted(VALUES)), min_size=1))
        assignments = {name: data.draw(VALUES[name]) for name in sorted(names)}
        self.cf.update(key, assignments)
        merged = {**self.rows.get(key, {"id": key}), **assignments}
        self.rows[key] = {name: value for name, value in merged.items() if value is not None}

    @rule(keys=st.lists(KEYS, max_size=10))
    def delete_keys(self, keys):
        live = {key for key in keys if key in self.rows}
        assert self.cf.delete_keys(keys) == len(live)
        for key in live:
            del self.rows[key]

    @rule()
    def truncate(self):
        self.cf.truncate()
        self.rows.clear()

    # ------------------------------------------------------------------
    # layers, crashes, indexes
    # ------------------------------------------------------------------
    @rule()
    def seal_memtable(self):
        self.cf.seal_memtable()

    @rule()
    def flush(self):
        self.cf.flush()

    @rule()
    def compact(self):
        self.cf.compact()

    @rule()
    def crash_and_replay(self):
        self.keyspace.simulate_crash()
        self.keyspace.replay_commit_log()

    @precondition(lambda self: self.INDEXED and not self.cf.has_index("x"))
    @rule()
    def create_index(self):
        self.cf.create_index("x_idx", "x")

    # ------------------------------------------------------------------
    # every read answers as the oracle does
    # ------------------------------------------------------------------
    def expected(self, key):
        return canonical_row(self.rows[key])

    @invariant()
    def point_reads_match(self):
        for key in sorted({*range(31), *self.rows, self.top + 1}):
            row = self.cf.get(key)
            if key in self.rows:
                assert row is not None and canonical_row(row) == self.expected(key)
            else:
                assert row is None

    @invariant()
    def multi_get_matches(self):
        keys = [30, 0, 7, 7, 31, 12, 3, 29]
        got = [canonical_row(row) for batch in self.cf.get_batches(keys) for row in batch.rows()]
        assert got == [self.expected(key) for key in keys if key in self.rows]

    @invariant()
    def scan_matches(self):
        rows = scan_rows(self.cf)
        assert sorted(map(canonical_row, rows)) == sorted(map(self.expected, self.rows))
        assert len(self.cf) == len(self.rows)

    @invariant()
    def index_lookups_match(self):
        for column in self.cf.indexed_columns:
            for value in {row.get(column) for row in self.rows.values()} - {None}:
                expected = {key for key, row in self.rows.items() if row.get(column) == value}
                got = [row["id"] for batch in self.cf.get_batches((value,), index=column)
                       for row in batch.rows()]
                # x = NaN matches nothing, so NaN has no entry to find.
                assert sorted(got) == sorted(expected), (column, value)

    @invariant()
    def family_is_clean(self):
        report = columnfamily_check(self.cf)
        assert report.ok, "\n".join(report.format_lines())


class IndexFreeColumnFamilyMachine(ColumnFamilyMachine):
    """The machine on a table without an index: ascending chunks are
    proven fresh and flush from their cell columns."""

    INDEXED = False


ColumnFamilyMachine.TestCase.settings = settings(deadline=None)
TestColumnFamily = ColumnFamilyMachine.TestCase
IndexFreeColumnFamilyMachine.TestCase.settings = settings(deadline=None)
TestIndexFreeColumnFamily = IndexFreeColumnFamilyMachine.TestCase


# ----------------------------------------------------------------------
# flat properties: one op list, compared at its end
# ----------------------------------------------------------------------
OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "flush", "seal"]),
        KEYS,
        st.integers(min_value=-1000, max_value=1000),
    ),
    max_size=120,
)


def replay(ops, indexed=False):
    """A two-column family after ``ops``, and the dict it must equal."""
    cf = ColumnFamily("t", [Column("id", parse_type("int")), Column("m", parse_type("int"))], "id")
    if indexed:
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
    return cf, reference


@given(ops=OPS)
@settings(max_examples=80, deadline=None)
def test_matches_reference_dict(ops):
    cf, reference = replay(ops)
    for key in range(31):
        row = cf.get(key)
        if key in reference:
            assert row is not None and row["m"] == reference[key]
        else:
            assert row is None
    assert {row["id"]: row["m"] for row in scan_rows(cf)} == reference
    assert len(cf) == len(reference)


@given(ops=OPS)
@settings(max_examples=40, deadline=None)
def test_secondary_index_always_consistent(ops):
    cf, reference = replay(ops, indexed=True)
    for value in set(reference.values()):
        expected = {key for key, m in reference.items() if m == value}
        got = {row["id"] for batch in cf.get_batches((value,), index="m") for row in batch.rows()}
        assert got == expected
