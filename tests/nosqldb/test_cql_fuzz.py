"""Property-based fuzzing of the CQL path.

Random rows are formatted as literal INSERT text, parsed, executed and
read back — the full text round trip must be lossless, including quote
escaping, negative numbers, unicode and set literals.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.nosqldb.engine import NoSQLEngine

text_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30
)
int_values = st.integers(min_value=-(2 ** 40), max_value=2 ** 40)
set_values = st.sets(st.integers(min_value=-1000, max_value=1000), max_size=8)


def _quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


@given(key=st.integers(min_value=0, max_value=10_000), text=text_values,
       number=int_values, flag=st.booleans(), members=set_values)
@settings(max_examples=120, deadline=None)
def test_literal_insert_round_trips(key, text, number, flag, members):
    engine = NoSQLEngine()
    session = engine.connect()
    session.execute("CREATE KEYSPACE ks")
    session.execute("USE ks")
    session.execute(
        "CREATE TABLE t (id int PRIMARY KEY, txt text, num bigint, "
        "flag boolean, members set<int>)"
    )
    set_literal = "{" + ", ".join(str(m) for m in sorted(members)) + "}"
    session.execute(
        f"INSERT INTO t (id, txt, num, flag, members) VALUES "
        f"({key}, {_quote(text)}, {number}, {'true' if flag else 'false'}, {set_literal})"
    )
    row = session.execute(f"SELECT * FROM t WHERE id = {key}").one()
    assert row["txt"] == text
    assert row["num"] == number
    assert row["flag"] is flag
    assert row["members"] == (members if members else None) or not members


@given(key=st.integers(min_value=0, max_value=100), text=text_values, number=int_values)
@settings(max_examples=80, deadline=None)
def test_prepared_and_literal_agree(key, text, number):
    engine = NoSQLEngine()
    session = engine.connect()
    session.execute("CREATE KEYSPACE ks")
    session.execute("USE ks")
    session.execute("CREATE TABLE t (id int PRIMARY KEY, txt text, num bigint)")
    prepared = session.prepare("INSERT INTO t (id, txt, num) VALUES (?, ?, ?)")
    session.execute_many(prepared, [(key, text, number)])
    via_plan = session.execute("SELECT * FROM t WHERE id = ?", (key,)).one()
    session.execute(
        f"INSERT INTO t (id, txt, num) VALUES ({key + 1000}, {_quote(text)}, {number})"
    )
    via_text = session.execute("SELECT * FROM t WHERE id = ?", (key + 1000,)).one()
    assert via_plan["txt"] == via_text["txt"] == text
    assert via_plan["num"] == via_text["num"] == number
