"""Golden-seed regression pins.

Seeded runs must replay bit-identically forever: these tests pin exact
outputs of seeded components so any accidental change to RNG draw
order, hash constants, or protocol sequencing fails loudly.  (CPython
guarantees ``random.Random``'s algorithms are stable across versions
for the methods used here.)

If a change legitimately alters draw order (e.g. a protocol now makes
one extra random choice), update the pinned values *in the same
commit* and call the behaviour change out in its message.
"""

import random

from repro.cluster.cluster import Cluster
from repro.core.entry import Entry, make_entries
from repro.hashing.families import HashFamily, fnv1a_64
from repro.strategies.registry import create_strategy
from repro.workload.generator import SteadyStateWorkload


class TestHashGoldens:
    def test_fnv1a_pin(self):
        assert fnv1a_64("v1") == 634738200219259176

    def test_family_assignment_pin(self):
        family = HashFamily(2, 10, seed=12345)
        assignments = [family.assign(Entry(f"v{i}")) for i in range(1, 6)]
        assert assignments == [
            [5, 7], [6, 5], [6, 2], [6, 1], [6, 8],
        ]


class TestPlacementGoldens:
    def test_random_server_placement_pin(self):
        cluster = Cluster(4, seed=777)
        strategy = create_strategy("random_server", cluster, x=3)
        strategy.place(make_entries(8))
        placement = {
            sid: sorted(e.entry_id for e in entries)
            for sid, entries in strategy.placement().items()
        }
        assert placement == {
            0: ["v3", "v4", "v8"],
            1: ["v3", "v5", "v7"],
            2: ["v1", "v4", "v6"],
            3: ["v3", "v5", "v7"],
        }

    def test_round_robin_lookup_pin(self):
        cluster = Cluster(5, seed=99)
        strategy = create_strategy("round_robin", cluster, y=2)
        strategy.place(make_entries(10))
        result = strategy.partial_lookup(4)
        # the server's whole store, in ascending dense index
        assert [e.entry_id for e in result.entries] == ["v3", "v4", "v8", "v9"]
        assert result.servers_contacted == (3,)


class TestWorkloadGoldens:
    def test_steady_state_trace_pin(self):
        workload = SteadyStateWorkload(10, rng=random.Random(2024))
        trace = workload.generate(20)
        head = [
            (type(e).__name__[0], round(e.time, 3), e.entry.entry_id)
            for e in trace.events[:8]
        ]
        assert head == [
            ("A", 5.376, "u1"),
            ("D", 28.126, "v8"),
            ("D", 30.819, "v7"),
            ("D", 36.205, "v3"),
            ("A", 38.412, "u2"),
            ("A", 50.588, "u3"),
            ("D", 52.778, "v5"),
            ("D", 63.505, "v1"),
        ]
