"""Reply-cache correctness: LRU mechanics + the staleness property.

The load-bearing test here is the hypothesis property: for *any*
interleaving of lookups and mutations, across every hosted scheme and
both wire codecs, a cache-enabled service must answer byte-identically
to a cache-disabled one — same reply frames, same Section 6.4 message
accounting.  That single property implies both soundness rules the
cache relies on (only RNG-free replies cached, invalidate before
apply): if either broke, some interleaving would surface a
divergent frame or a diverged RNG stream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.messages import AddRequest, DeleteRequest, LookupRequest
from repro.core.entry import Entry
from repro.core.exceptions import InvalidParameterError
from repro.net.cache import DEFAULT_CAPACITY, ReplyCache
from repro.net.codec import CODEC_BINARY, CODEC_JSON, encode_envelope_as, encode_message
from repro.net.service import DEFAULT_SCHEMES, LookupService, ServiceConfig
from repro.net.workers import (
    apply_delta,
    compute_apply_delta,
    load_snapshot,
    snapshot_stores,
)
from repro.obs.metrics import MetricsRegistry


class TestReplyCacheUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            ReplyCache(0)
        with pytest.raises(InvalidParameterError):
            ReplyCache(-3)

    def test_hit_miss_and_invalidation(self):
        cache = ReplyCache(4)
        key = ("json", "send", "hash", 0, 5)
        assert cache.get(key) is None
        cache.put(key, b"abc")
        assert cache.get(key) == b"abc"
        # present => valid: the only way out is invalidation (or LRU)
        assert cache.invalidate("hash") == 1
        assert cache.get(key) is None
        snap = cache.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 2 and snap["size"] == 0

    def test_lru_eviction_order(self):
        cache = ReplyCache(2)
        cache.put(("c", "send", "a", 0, 1), b"1")
        cache.put(("c", "send", "a", 1, 1), b"2")
        assert cache.get(("c", "send", "a", 0, 1)) == b"1"  # refresh 0
        cache.put(("c", "send", "a", 2, 1), b"3")  # evicts server 1
        assert cache.get(("c", "send", "a", 1, 1)) is None
        assert cache.get(("c", "send", "a", 0, 1)) == b"1"
        assert cache.evictions == 1

    def test_invalidate_is_scoped_to_the_scheme(self):
        cache = ReplyCache(8)
        cache.put(("c", "send", "hash", 0, 1), b"h")
        cache.put(("c", "send", "hash", 1, 1), b"h2")
        cache.put(("c", "send", "fixed", 0, 1), b"f")
        assert cache.invalidate("hash") == 2
        assert cache.get(("c", "send", "fixed", 0, 1)) == b"f"
        assert len(cache) == 1
        assert cache.invalidations == 2

    def test_clear_counts_as_invalidations(self):
        cache = ReplyCache(8)
        cache.put(("c", "send", "hash", 0, 1), b"h")
        assert cache.clear() == 1
        assert cache.invalidations == 1 and len(cache) == 0

    def test_export_hot_is_mru_first_and_bounded(self):
        cache = ReplyCache(8)
        for server in range(3):
            cache.put(("c", "send", "hash", server, 0), bytes([server]))
        cache.get(("c", "send", "hash", 0, 0))  # 0 becomes the hottest
        assert cache.export_hot(2) == [
            (("c", "send", "hash", 0, 0), b"\x00"),
            (("c", "send", "hash", 2, 0), b"\x02"),
        ]

    def test_publish_mirrors_counters(self):
        cache = ReplyCache(8)
        cache.put(("c", "send", "hash", 0, 1), b"h")
        cache.get(("c", "send", "hash", 0, 1))
        metrics = MetricsRegistry()
        cache.publish(metrics)
        state = metrics.dump_state()
        assert state["counters"]["net.cache.hits"] == 1
        assert state["gauges"]["net.cache.size"] == 1

    def test_default_capacity(self):
        assert ReplyCache().capacity == DEFAULT_CAPACITY


# -- the staleness / byte-identity property ---------------------------------

SCHEMES = sorted(DEFAULT_SCHEMES)

#: One step of an interleaving: (kind, scheme index, server pick,
#: target-or-entry pick).  Kind 0/1/2 = lookup/add/delete.
steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=len(SCHEMES) - 1),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=40,
)


def _step_envelope(service, step):
    """A concrete envelope for one abstract interleaving step.

    Derived from the live service so the generated ops always address
    real servers, and mutations target a mix of seeded entries (which
    exist) and fresh ones (which don't) — deletes of absent entries
    and re-adds of present ones are part of the interleaving space.
    """
    kind, scheme_pick, server_pick, aux = step
    key = SCHEMES[scheme_pick]
    server = server_pick % service.cluster.size
    if kind == 0:
        # target 0 = whole store (cacheable); small positive targets
        # exercise the RNG-sampling (never-cached) path too.
        message = LookupRequest(target=aux % 5)
    else:
        entry = Entry(f"v{aux % 12 + 1}" if aux % 2 else f"zz{aux % 7}")
        message = AddRequest(entry=entry) if kind == 1 else DeleteRequest(entry=entry)
    return {
        "op": "send",
        "server": server,
        "key": key,
        "message": encode_message(message),
    }


@settings(deadline=None, max_examples=60)
@given(steps=steps, codec_pick=st.booleans())
def test_any_interleaving_is_byte_identical_to_cache_off(steps, codec_pick):
    """No interleaving of lookups and mutations ever serves a stale
    (or otherwise divergent) cached reply."""
    codec = CODEC_BINARY if codec_pick else CODEC_JSON
    raw = codec == CODEC_BINARY
    config = ServiceConfig(server_count=6, entry_count=8, seed=13)
    cached = LookupService(config)
    plain = LookupService(
        ServiceConfig(server_count=6, entry_count=8, seed=13, cache_size=0)
    )
    assert cached.reply_cache is not None and plain.reply_cache is None
    for step in steps:
        envelope = _step_envelope(cached, step)
        a = cached.handle_envelope(dict(envelope), raw=raw)
        b = plain.handle_envelope(dict(envelope), raw=raw)
        assert encode_envelope_as(a, codec) == encode_envelope_as(b, codec)
    # Section 6.4 accounting never diverges either: a cache hit books
    # the same message the bypassed Network.send would have.
    assert (
        cached.cluster.network.stats.total == plain.cluster.network.stats.total
    )
    assert (
        cached.cluster.network.stats.by_type == plain.cluster.network.stats.by_type
    )


def test_mutation_invalidates_before_the_reply_is_sent():
    """The reply to a mutation is the linearization point: any lookup
    issued after it must see post-mutation state, even on the scheme's
    hottest cached slot."""
    service = LookupService(ServiceConfig(server_count=6, entry_count=8, seed=13))
    lookup = {
        "op": "send",
        "server": 0,
        "key": "full_replication",
        "message": encode_message(LookupRequest(target=0)),
    }
    before = service.handle_envelope(dict(lookup))
    again = service.handle_envelope(dict(lookup))
    assert before == again and service.reply_cache.hits >= 1
    add = {
        "op": "send",
        "server": 0,
        "key": "full_replication",
        "message": encode_message(AddRequest(entry=Entry("zz-hot"))),
    }
    assert service.handle_envelope(add)["ok"]
    after = service.handle_envelope(dict(lookup))
    ids = {e["id"] for e in after["value"]}
    assert "zz-hot" in ids
    assert service.reply_cache.invalidations >= 1


@pytest.mark.parametrize("route", ["local", "apply_delta", "load_snapshot"])
def test_reply_cached_before_a_mutation_is_never_served_after_it(route):
    """Present => valid holds because every way a store can change
    drops the scheme's rows first: a local mutation, a writer delta,
    a snapshot adoption."""
    config = ServiceConfig(server_count=6, entry_count=8, seed=13)
    service = LookupService(config)
    lookup = {
        "op": "send",
        "server": 0,
        "key": "full_replication",
        "message": encode_message(LookupRequest(target=0)),
    }
    stale = service.handle_envelope(dict(lookup))
    assert service.handle_envelope(dict(lookup)) == stale
    assert service.reply_cache.hits == 1
    add = {
        "op": "send",
        "server": 0,
        "key": "full_replication",
        "message": encode_message(AddRequest(entry=Entry("zz-hot"))),
    }
    if route == "local":
        assert service.handle_envelope(add)["ok"]
    else:
        writer = LookupService(config)
        _, delta = compute_apply_delta(writer, add)
        if route == "apply_delta":
            apply_delta(service, delta)
        else:
            load_snapshot(service, snapshot_stores(writer))
    assert len(service.reply_cache) == 0
    after = service.handle_envelope(dict(lookup))
    assert service.reply_cache.hits == 1  # a miss, answered from the stores
    assert "zz-hot" in {e["id"] for e in after["value"]}
    # the refilled row is the post-mutation answer
    assert service.handle_envelope(dict(lookup)) == after
    assert service.reply_cache.hits == 2


def test_sampled_targets_are_never_cached():
    """0 < target < |store| draws from the cluster RNG; caching it
    would freeze the sample and fork the RNG stream."""
    service = LookupService(ServiceConfig(server_count=6, entry_count=8, seed=13))
    envelope = {
        "op": "send",
        "server": 0,
        "key": "full_replication",
        "message": encode_message(LookupRequest(target=2)),
    }
    first = service.handle_envelope(dict(envelope))
    assert first["ok"]
    assert len(service.reply_cache) == 0
    # across many draws the sample must actually vary: a frozen reply
    # here would mean the RNG was bypassed
    seen = {
        tuple(sorted(e["id"] for e in service.handle_envelope(dict(envelope))["value"]))
        for _ in range(30)
    }
    assert len(seen) > 1
    assert service.reply_cache.hits == 0


def test_fault_injector_disables_caching():
    """With a fault plan installed, delivery is no longer a pure
    function of store state — nothing may be cached."""
    from repro.cluster.faults import FaultPlan

    service = LookupService(ServiceConfig(server_count=6, entry_count=8, seed=13))
    service.cluster.network.install_fault_plan(FaultPlan(seed=3))
    envelope = {
        "op": "send",
        "server": 0,
        "key": "full_replication",
        "message": encode_message(LookupRequest(target=0)),
    }
    service.handle_envelope(dict(envelope))
    service.handle_envelope(dict(envelope))
    assert len(service.reply_cache) == 0 and service.reply_cache.hits == 0


def test_capabilities_expose_cache_counters():
    service = LookupService(ServiceConfig(server_count=6, entry_count=8, seed=13))
    envelope = {
        "op": "send",
        "server": 0,
        "key": "hash",
        "message": encode_message(LookupRequest(target=0)),
    }
    service.handle_envelope(dict(envelope))
    service.handle_envelope(dict(envelope))
    caps = service.capabilities()
    assert caps["cache"]["enabled"] is True
    assert caps["cache"]["hits"] == 1 and caps["cache"]["misses"] == 1
    assert caps["workers"] == {"count": 1, "index": 0, "role": "single"}
    # and the metrics registry mirrors them
    state = service.metrics.dump_state()
    assert state["counters"]["net.cache.hits"] == 1


def test_cache_disabled_capabilities():
    service = LookupService(
        ServiceConfig(server_count=6, entry_count=8, seed=13, cache_size=0)
    )
    caps = service.capabilities()
    assert caps["cache"] == {"enabled": False}


def test_capabilities_cache_block_is_the_one_tier():
    """`info.capabilities.cache` is a wire surface: the benchmark's
    live run diffs exactly these counters, and there is no second
    (shared) tier to report."""
    service = LookupService(ServiceConfig(server_count=6, entry_count=8, seed=13))
    cache = service.handle_envelope({"op": "info"})["value"]["capabilities"]["cache"]
    assert set(cache) == {
        "enabled",
        "hits",
        "misses",
        "evictions",
        "invalidations",
        "hit_rate",
        "size",
        "capacity",
    }
