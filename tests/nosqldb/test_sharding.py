"""Consistent-hash sharding: the ring, the sharded column family, and
the ``keyspace.shard-routing`` invariant rule.

The ring must be deterministic across processes (it defines a persistent
layout), reasonably balanced at small shard counts, and the sharded
column family must keep every read/write/scan/count answer identical to
the single-shard layout while holding the routing invariant the checker
enforces.
"""

import pytest

from repro.analysis.sstable_check import columnfamily_check
from repro.nosqldb.columnfamily import Column, ColumnFamily
from repro.nosqldb.sharding import (
    DEFAULT_VNODES,
    HashRing,
    key_token,
    resolve_shards,
)
from repro.nosqldb.types import parse_type


def make_family(n=60, shards=1) -> ColumnFamily:
    family = ColumnFamily(
        "cells",
        [
            Column("id", parse_type("int")),
            Column("label", parse_type("text")),
            Column("measure", parse_type("int")),
        ],
        primary_key="id",
        shards=shards,
    )
    for i in range(n):
        family.insert({"id": i, "label": f"m{i % 7}", "measure": i})
    return family


def rules_of(report):
    return {violation.rule for violation in report.violations}


class TestHashRing:
    def test_deterministic_across_instances(self):
        a, b = HashRing(4), HashRing(4)
        keys = list(range(500)) + [f"k{i}" for i in range(100)]
        assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]

    def test_tokens_are_stable_values(self):
        # Pinned digests: a change here silently remaps every stored key.
        assert key_token(0) == 4244678350166698388
        assert key_token("m") == 13585315778576241670
        assert key_token(1) != key_token("1")  # type-faithful encoding

    def test_single_shard_short_circuit(self):
        ring = HashRing(1)
        assert all(ring.shard_for(k) == 0 for k in range(50))

    def test_every_shard_gets_keys(self):
        ring = HashRing(4)
        spread = ring.spread(range(1000))
        assert set(spread) == {0, 1, 2, 3}
        assert sum(spread.values()) == 1000
        # Balance: vnodes keep the largest share well under a 2x skew.
        assert max(spread.values()) < 2 * (1000 / 4)
        assert min(spread.values()) > 0

    def test_type_faithful_routing(self):
        # 1 and "1" encode differently and may land on different shards;
        # both must route consistently with their own token.
        ring = HashRing(8)
        assert ring.shard_for(1) == ring.shard_for(1)
        assert ring.shard_for("1") == ring.shard_for("1")

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)
        assert HashRing(2).vnodes == DEFAULT_VNODES

    def test_resolve_shards(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards() == 1
        assert resolve_shards(4) == 4
        monkeypatch.setenv("REPRO_SHARDS", "8")
        assert resolve_shards() == 8
        assert resolve_shards(2) == 2  # explicit beats env
        monkeypatch.setenv("REPRO_SHARDS", "garbage")
        assert resolve_shards() == 1
        monkeypatch.setenv("REPRO_SHARDS", "-3")
        assert resolve_shards() == 1


class TestShardedColumnFamily:
    def test_reads_match_single_shard(self):
        single, sharded = make_family(shards=1), make_family(shards=4)
        for key in range(60):
            assert sharded.get(key) == single.get(key)
        assert sharded.get_many(list(range(0, 60, 7))) == single.get_many(
            list(range(0, 60, 7))
        )
        assert len(sharded) == len(single) == 60

    def test_scan_is_shard_chained_multiset(self):
        single, sharded = make_family(shards=1), make_family(shards=4)
        flat = lambda rows: sorted(tuple(sorted(r.items())) for r in rows)
        assert flat(sharded.scan()) == flat(single.scan())
        # scan() chains scan_shard(0..N-1) exactly.
        chained = [
            row
            for shard_id in range(sharded.shard_count)
            for row in sharded.scan_shard(shard_id)
        ]
        assert chained == list(sharded.scan())

    def test_shard_batch_counts_sum_to_len(self):
        # Counting never needs rows: the per-shard batch selections sum
        # to the live-row count, flushed or not, layered or not.
        sharded = make_family(shards=4)

        def counted():
            return sum(
                batch.count()
                for shard_id in range(sharded.shard_count)
                for batch in sharded.scan_batches(shard_id)
            )

        assert counted() == len(sharded) == 60
        sharded.flush()
        assert counted() == 60
        sharded.delete(3)
        sharded.insert({"id": 5, "label": "x"})
        assert counted() == len(sharded) == 59
        sharded.drop_volatile_state()  # len() recounts through the batches
        assert counted() == len(sharded) == 60

    def test_scan_batches_stay_on_their_shard(self):
        sharded = make_family(shards=4)
        sharded.flush()
        ring = sharded.ring
        for shard_id in range(sharded.shard_count):
            for batch in sharded.scan_batches(shard_id):
                assert {ring.shard_for(key) for key in batch.values("id")} == {shard_id}

    def test_writes_route_by_ring(self):
        sharded = make_family(shards=4)
        ring = sharded.ring
        for shard in sharded.shards:
            for key, _ in shard.memtable:
                assert ring.shard_for(key) == shard.shard_id

    def test_delete_and_overwrite_stay_routed(self):
        sharded = make_family(shards=4)
        sharded.flush()
        sharded.delete(3)
        sharded.insert({"id": 7, "label": "new", "measure": -1})
        assert sharded.get(3) is None
        assert sharded.get(7)["label"] == "new"
        assert len(sharded) == 59
        report = columnfamily_check(sharded)
        assert report.ok, "\n".join(report.format_lines())

    def test_single_shard_filenames_unchanged(self, tmp_path):
        family = ColumnFamily(
            "cells",
            [Column("id", parse_type("int"))],
            primary_key="id",
            data_dir=tmp_path,
            shards=1,
        )
        family.insert({"id": 1})
        family.flush()
        assert [p.name for p in sorted(tmp_path.glob("*.db"))] == ["cells-1-Data.db"]

    def test_sharded_filenames_carry_shard_id(self, tmp_path):
        family = ColumnFamily(
            "cells",
            [Column("id", parse_type("int"))],
            primary_key="id",
            data_dir=tmp_path,
            shards=2,
        )
        for i in range(20):
            family.insert({"id": i})
        family.flush()
        names = {p.name for p in tmp_path.glob("*.db")}
        assert names and all("-s" in name for name in names)


class TestShardRoutingInvariant:
    def test_clean_family_passes(self):
        report = columnfamily_check(make_family(shards=4))
        assert report.ok, "\n".join(report.format_lines())
        assert report.n_checks > 0

    def test_flushed_family_passes(self):
        family = make_family(shards=4)
        family.flush()
        assert columnfamily_check(family).ok

    def test_misrouted_row_flagged(self):
        family = make_family(shards=4)
        key = 1000
        wrong = next(
            shard
            for shard in family.shards
            if shard.shard_id != family.ring.shard_for(key)
        )
        wrong.memtable.put(key, family.encode_row({"id": key, "measure": 0}))
        wrong.n_live += 1  # keep the live counters consistent
        assert "keyspace.shard-routing" in rules_of(columnfamily_check(family))

    def test_double_hosted_row_flagged(self):
        family = make_family(shards=4)
        key = 5  # already live on its home shard
        wrong = next(
            shard
            for shard in family.shards
            if shard.shard_id != family.ring.shard_for(key)
        )
        wrong.memtable.put(key, family.encode_row({"id": key, "measure": 0}))
        report = columnfamily_check(family)
        assert "keyspace.shard-routing" in rules_of(report)
        assert any("double-count" in v.message for v in report.violations)

    def test_counter_drift_flagged(self):
        # A drifted per-shard counter inflates the family total, which
        # the live-count reconciliation rule compares against storage.
        family = make_family(shards=4)
        family.shards[0].n_live += 1
        assert "sstable.live-count" in rules_of(columnfamily_check(family))
