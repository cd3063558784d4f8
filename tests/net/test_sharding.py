"""Pure tests for the key→shard placement core (no sockets, no clocks)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entry import make_entries
from repro.core.exceptions import InvalidParameterError
from repro.net.sharding import (
    RANK_TABLE_CAP,
    RING,
    ShardMap,
    partial_replica,
    ring_position,
)


def reference_home(shards, probes, key, replicas):
    """The ranking as ``ShardMap.home`` computed it before it kept a
    table — hash every probe, sort every shard, on every call.  Kept
    verbatim as the oracle for the rank-once table."""
    positions = {
        name: ring_position(f"shard|{name}") for name in sorted(set(shards))
    }
    probe_points = [ring_position(f"key|{key}|{i}") for i in range(probes)]
    ranked = sorted(
        positions.items(),
        key=lambda item: (
            min((item[1] - point) % RING for point in probe_points),
            item[0],
        ),
    )
    return [name for name, _ in ranked[: min(replicas, len(ranked))]]


class TestShardMap:
    def test_home_is_deterministic_and_order_insensitive(self):
        a = ShardMap(["s0", "s1", "s2", "s3"])
        b = ShardMap(["s3", "s1", "s0", "s2"])
        for key in ["fixed", "hash", "round_robin"]:
            assert a.home(key, 2) == b.home(key, 2)
            assert a.home(key, 2) == a.home(key, 2)

    def test_home_returns_distinct_shards_primary_first(self):
        shard_map = ShardMap([f"s{i}" for i in range(5)])
        home = shard_map.home("round_robin", 3)
        assert len(home) == 3
        assert len(set(home)) == 3
        assert home[0] == shard_map.home("round_robin", 1)[0]
        # Growing the replica count only appends, never reorders —
        # the probe ranking is a total order over shards.
        assert shard_map.home("round_robin", 2) == home[:2]

    def test_replicas_clamped_to_shard_count(self):
        shard_map = ShardMap(["s0", "s1"])
        assert len(shard_map.home("k", 5)) == 2

    def test_keys_spread_over_shards(self):
        # The point of the splitmix finalizer: similar shard names
        # must not collapse onto one ring arc.  With 50 keys on 5
        # shards every shard should be *somebody's* primary.
        shard_map = ShardMap([f"s{i}" for i in range(5)])
        primaries = {shard_map.home(f"key-{i}", 1)[0] for i in range(50)}
        assert primaries == set(shard_map.shards)

    def test_removing_other_shard_does_not_move_assignment(self):
        # Consistent hashing's defining property: a key's ranking of
        # surviving shards is stable when an unrelated shard leaves.
        full = ShardMap([f"s{i}" for i in range(5)])
        for key in [f"key-{i}" for i in range(20)]:
            ranking = full.home(key, 5)
            survivor_map = ShardMap([s for s in full.shards if s != ranking[-1]])
            assert survivor_map.home(key, 4) == ranking[:-1]

    def test_role_is_index_in_home_or_none(self):
        shard_map = ShardMap(["s0", "s1", "s2"])
        home = shard_map.home("fixed", 2)
        assert shard_map.role("fixed", home[0], 2) == 0
        assert shard_map.role("fixed", home[1], 2) == 1
        (other,) = set(shard_map.shards) - set(home)
        assert shard_map.role("fixed", other, 2) is None

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ShardMap([])
        with pytest.raises(InvalidParameterError):
            ShardMap(["s0"], probes=0)
        with pytest.raises(InvalidParameterError):
            ShardMap(["s0"]).home("k", 0)


class TestRankOnce:
    @settings(deadline=None, max_examples=60)
    @given(
        shards=st.sets(st.text(min_size=1, max_size=4), min_size=1, max_size=8),
        probes=st.integers(1, 32),
        lookups=st.lists(
            st.tuples(st.text(max_size=6), st.integers(1, 10)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_home_and_role_match_the_recomputed_ranking(
        self, shards, probes, lookups
    ):
        shard_map = ShardMap(list(shards), probes=probes)
        # Twice over the script: every key is answered cold, then warm,
        # and at replica counts other than the one that filled its row.
        for key, replicas in lookups + lookups:
            want = reference_home(shards, probes, key, replicas)
            got = shard_map.home(key, replicas)
            assert got == want
            for shard in shards:
                role = shard_map.role(key, shard, replicas)
                assert role == (want.index(shard) if shard in want else None)
            # The caller owns the list: wrecking it changes nothing.
            got.reverse()
            got.append("intruder")
            assert shard_map.home(key, replicas) == want

    def test_table_is_bounded_and_correct_across_the_clear(self):
        shards = ["s0", "s1", "s2"]
        shard_map = ShardMap(shards, probes=2)
        largest = 0
        for i in range(10 * RANK_TABLE_CAP):
            key = f"garbage-{i}"
            home = shard_map.home(key, 2)
            largest = max(largest, len(shard_map._ranked))
            if i % 97 == 0 or len(shard_map._ranked) == 1:
                # Sampled keys, and every key that landed on a table
                # that had just been cleared.
                assert home == reference_home(shards, 2, key, 2)
        assert largest == RANK_TABLE_CAP
        # A key ranked before the clears still answers the same.
        assert shard_map.home("garbage-0", 3) == reference_home(
            shards, 2, "garbage-0", 3
        )


class TestRingPosition:
    def test_similar_labels_are_spread(self):
        positions = [ring_position(f"shard|s{i}") for i in range(8)]
        assert len(set(positions)) == 8
        # Neighbouring names must land far apart (the raw FNV digest
        # keeps them within a ~2^50 cluster; finalized they span the
        # full 64-bit ring).
        spread = max(positions) - min(positions)
        assert spread > 2**60

    def test_stable_across_calls(self):
        assert ring_position("key|fixed|0") == ring_position("key|fixed|0")


class TestPartialReplica:
    def test_size_and_determinism(self):
        entries = make_entries(30)
        subset = partial_replica("fixed", entries, 1, 0.25)
        assert len(subset) == 8  # round(0.25 * 30)
        assert subset == partial_replica("fixed", entries, 1, 0.25)
        assert {e.entry_id for e in subset} <= {e.entry_id for e in entries}

    def test_distinct_roles_pick_different_subsets(self):
        entries = make_entries(30)
        first = {e.entry_id for e in partial_replica("fixed", entries, 1, 0.25)}
        second = {e.entry_id for e in partial_replica("fixed", entries, 2, 0.25)}
        assert first != second

    def test_keeps_at_least_one_entry(self):
        entries = make_entries(3)
        assert len(partial_replica("k", entries, 1, 0.01)) == 1
        assert partial_replica("k", [], 1, 0.5) == []

    def test_full_fraction_keeps_everything(self):
        entries = make_entries(10)
        subset = partial_replica("k", entries, 1, 1.0)
        assert {e.entry_id for e in subset} == {e.entry_id for e in entries}

    def test_validation(self):
        entries = make_entries(4)
        with pytest.raises(InvalidParameterError):
            partial_replica("k", entries, 0, 0.5)
        with pytest.raises(InvalidParameterError):
            partial_replica("k", entries, 1, 0.0)
        with pytest.raises(InvalidParameterError):
            partial_replica("k", entries, 1, 1.5)
