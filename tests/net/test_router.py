"""ShardRouter tests: an in-process fleet on real sockets.

These cover the routing layer's contract — membership-aware candidate
selection, failover to partial backups, degraded-never-raised results
— against live :class:`LookupService` instances.  The full
subprocess + SIGKILL story lives in ``scripts/shard_chaos_smoke.py``.
"""

import asyncio
import random

import pytest

from repro.net.client import AsyncLookupClient, ServiceError
from repro.net.membership import MembershipPump
from repro.net.router import ShardRouter
from repro.net.service import DEFAULT_SCHEMES, LookupService, ServiceConfig
from repro.net.sharding import ShardMap, partial_replica
from repro.core.entry import make_entries
from repro.protocol.membership import MembershipConfig

ENTRIES = 30
SERVERS = 12
REPLICAS = 2
TARGET = 10

FAST = MembershipConfig(
    heartbeat_interval=0.05, suspect_after=0.3, dead_after=0.6, quarantine=0.4
)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


class Fleet:
    """Three in-process shard services with membership pumps."""

    def __init__(self):
        self.services = {}
        self.pumps = {}
        self.addresses = {}

    async def start(self, shard_count=3, with_pumps=True):
        for i in range(shard_count):
            service = LookupService(
                ServiceConfig(
                    server_count=SERVERS,
                    entry_count=ENTRIES,
                    seed=5,
                    shard_index=i,
                    shard_count=shard_count,
                    replicas=REPLICAS,
                )
            )
            host, port = await service.start(port=0)
            self.services[service.shard_name] = service
            self.addresses[service.shard_name] = (host, port)
        if with_pumps:
            for name, service in self.services.items():
                pump = MembershipPump(
                    name,
                    {n: a for n, a in self.addresses.items() if n != name},
                    config=FAST,
                    incarnation=1,
                    rng=random.Random(0),
                )
                service.membership = pump
                pump.start()
                self.pumps[name] = pump

    async def stop_shard(self, name):
        if name in self.pumps:
            await self.pumps.pop(name).stop()
        await self.services[name].stop()

    async def stop(self):
        for name in list(self.pumps):
            await self.pumps.pop(name).stop()
        for service in self.services.values():
            await service.stop()

    def router(self, **kwargs):
        kwargs.setdefault("rng", random.Random(7))
        kwargs.setdefault("timeout", 1.0)
        kwargs.setdefault("view_ttl", 0.1)
        return ShardRouter(self.addresses, replicas=REPLICAS, **kwargs)

    async def wait_view(self, router, shard, want, budget=10.0):
        deadline = asyncio.get_running_loop().time() + budget
        while asyncio.get_running_loop().time() < deadline:
            view = await router.membership_view(refresh=True)
            if view.get(shard) == want:
                return view
            await asyncio.sleep(0.05)
        raise AssertionError(f"{shard} never became {want}")


class TestHealthyRouting:
    def test_every_key_meets_target_with_attribution(self):
        async def scenario():
            fleet = Fleet()
            await fleet.start()
            router = fleet.router()
            try:
                shard_map = ShardMap(list(fleet.addresses))
                for key in sorted(fleet.services["s0"].strategies):
                    routed = await router.lookup(key, TARGET)
                    assert routed.success, (key, routed)
                    assert list(routed.home) == shard_map.home(key, REPLICAS)
                    assert routed.routed == routed.home
                    # Attribution is over home shards only.
                    assert {s for s, _ in routed.contacts} <= set(routed.home)
            finally:
                await router.close()
                await fleet.stop()

        run(scenario())

    def test_healthy_primary_answers_without_failover(self):
        async def scenario():
            fleet = Fleet()
            await fleet.start()
            router = fleet.router()
            try:
                routed = await router.lookup("full_replication", TARGET)
                assert not routed.failover
                assert {s for s, _ in routed.contacts} == {routed.home[0]}
            finally:
                await router.close()
                await fleet.stop()

        run(scenario())

    def test_single_unsharded_service_is_routable(self):
        async def scenario():
            service = LookupService(
                ServiceConfig(server_count=SERVERS, entry_count=ENTRIES, seed=5)
            )
            host, port = await service.start(port=0)
            router = ShardRouter(
                {"s0": (host, port)},
                replicas=1,
                rng=random.Random(7),
                timeout=1.0,
            )
            try:
                view = await router.membership_view()
                assert view == {"s0": "alive"}
                routed = await router.lookup("hash", TARGET)
                assert routed.success
            finally:
                await router.close()
                await service.stop()

        run(scenario())

    def test_unknown_key_raises_service_error(self):
        async def scenario():
            fleet = Fleet()
            await fleet.start(with_pumps=False)
            router = fleet.router()
            try:
                with pytest.raises(ServiceError):
                    await router.lookup("no-such-key", TARGET)
            finally:
                await router.close()
                await fleet.stop()

        run(scenario())

    def test_ranking_table_draws_no_randomness(self):
        # Two same-seed routers over two identical fleets, one reading
        # a warm ranking table and one ranking from cold on every
        # lookup: the seeded contact walks and the answers must agree.
        script_rng = random.Random(11)
        keys = sorted(DEFAULT_SCHEMES)
        script = [
            (script_rng.choice(keys), script_rng.choice([1, 4, TARGET, ENTRIES]))
            for _ in range(200)
        ]

        async def replay(warm):
            fleet = Fleet()
            await fleet.start(with_pumps=False)
            router = fleet.router()
            seen = []
            try:
                for key, target in script:
                    if warm:
                        router.map.home(key, REPLICAS)
                    else:
                        router.map._ranked.clear()
                    result = await router.lookup(key, target)
                    seen.append(
                        (result.home, result.routed, result.contacts, result.entries)
                    )
            finally:
                await router.close()
                await fleet.stop()
            return seen

        assert run(replay(warm=True)) == run(replay(warm=False))


class TestFailover:
    def test_dead_primary_degrades_and_skips_corpse(self):
        async def scenario():
            fleet = Fleet()
            await fleet.start()
            router = fleet.router()
            try:
                shard_map = ShardMap(list(fleet.addresses))
                key = "full_replication"
                primary, backup = shard_map.home(key, REPLICAS)
                await fleet.stop_shard(primary)
                await fleet.wait_view(router, primary, "dead")
                routed = await router.lookup(key, TARGET)
                assert primary not in routed.routed
                assert routed.failover
                assert not routed.success
                assert routed.degraded
                # The backup's partial replica answers, short but real.
                expected = len(
                    partial_replica(key, make_entries(ENTRIES), 1, 0.25)
                )
                assert len(routed.entries) == expected
                placed = {e.entry_id for e in make_entries(ENTRIES)}
                assert {e.entry_id for e in routed.entries} <= placed
            finally:
                await router.close()
                await fleet.stop()

        run(scenario())

    def test_other_keys_unaffected_by_shard_death(self):
        async def scenario():
            fleet = Fleet()
            await fleet.start()
            router = fleet.router()
            try:
                shard_map = ShardMap(list(fleet.addresses))
                keys = sorted(fleet.services["s0"].strategies)
                victim = shard_map.home("full_replication", REPLICAS)[0]
                spared = [
                    k for k in keys
                    if victim not in shard_map.home(k, REPLICAS)
                ]
                assert spared, "need at least one key not homed on the victim"
                await fleet.stop_shard(victim)
                await fleet.wait_view(router, victim, "dead")
                for key in spared:
                    routed = await router.lookup(key, TARGET)
                    assert routed.success, (key, routed)
            finally:
                await router.close()
                await fleet.stop()

        run(scenario())

    def test_whole_fleet_down_degrades_to_empty_not_error(self):
        async def scenario():
            fleet = Fleet()
            await fleet.start(with_pumps=False)
            router = fleet.router(timeout=0.5)
            try:
                await router.lookup("hash", TARGET)  # cache fleet info
                for name in list(fleet.services):
                    await fleet.stop_shard(name)
                routed = await router.lookup("hash", TARGET)
                assert len(routed.entries) == 0
                assert not routed.success
                assert routed.degraded
            finally:
                await router.close()
                await fleet.stop()

        run(scenario())

    def test_stale_all_dead_view_still_tries_home_shards(self):
        async def scenario():
            fleet = Fleet()
            await fleet.start(with_pumps=False)
            router = fleet.router()
            try:
                # Poison the cached view: everyone condemned.
                router._view = {name: "dead" for name in fleet.addresses}
                router._view_at = router._clock()
                routed = await router.lookup("hash", TARGET)
                # A wrong "dead" verdict costs contacts, not data.
                assert routed.success
            finally:
                await router.close()
                await fleet.stop()

        run(scenario())

    def test_verify_falls_over_to_surviving_home_shard(self):
        async def scenario():
            fleet = Fleet()
            await fleet.start(with_pumps=False)
            router = fleet.router()
            try:
                key = "round_robin"
                shard_map = ShardMap(list(fleet.addresses))
                primary = shard_map.home(key, REPLICAS)[0]
                await fleet.stop_shard(primary)
                report = await router.verify(key)
                assert "coverage" in report
            finally:
                await router.close()
                await fleet.stop()

        run(scenario())


# --------------------------------------------------------------------------
# lookup_many: the client's round driver, keyed by shard connection
# --------------------------------------------------------------------------

KEYS = sorted(DEFAULT_SCHEMES)


def mixed_requests(count=60, seed=13):
    rng = random.Random(seed)
    return [
        (rng.choice(KEYS), rng.choice([1, 4, TARGET, ENTRIES])) for _ in range(count)
    ]


def count_envelopes(service):
    """Wrap ``handle_envelope``; returns the list it logs ``(op, size)`` to."""
    seen = []
    handle = service.handle_envelope

    def counting(envelope, *, raw=False):
        seen.append((envelope.get("op"), len(envelope.get("requests") or ())))
        return handle(envelope, raw=raw)

    service.handle_envelope = counting
    return seen


class TestLookupMany:
    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_mixed_batch_answers_in_request_order_with_attribution(self, codec):
        requests = mixed_requests()

        async def scenario():
            fleet = Fleet()
            await fleet.start(with_pumps=False)
            router = fleet.router(codec=codec)
            try:
                report = await router.lookup_many(requests)
                shard_map = ShardMap(list(fleet.addresses))
                assert len(report) == len(requests)
                for (key, target), result in zip(requests, report):
                    assert (result.key, result.target) == (key, target)
                    assert result.codec == codec
                    if target <= TARGET:  # every scheme covers 10 of 30
                        assert result.status == "ok", (key, target, result)
                    else:
                        assert result.status in ("ok", "degraded")
                    ids = [entry.entry_id for entry in result.entries]
                    assert len(set(ids)) == len(ids) == min(len(ids), target)
                    assert list(result.home) == shard_map.home(key, REPLICAS)
                    assert result.routed == result.home
                    assert len(result.contacts) == result.messages >= 1
                    assert result.contacts[0][0] == result.home[0]
                    assert not result.failover
            finally:
                await router.close()
                await fleet.stop()

        run(scenario())

    def test_same_seed_batches_replay_identical_walks(self):
        # Every contact order is drawn before anything is sent, so the
        # walks cannot depend on which shard's frame comes back first.
        requests = mixed_requests()

        async def replay():
            fleet = Fleet()
            await fleet.start(with_pumps=False)
            router = fleet.router()
            try:
                report = await router.lookup_many(requests)
                return [
                    (r.entries, r.servers_contacted, r.contacts) for r in report
                ]
            finally:
                await router.close()
                await fleet.stop()

        async def scenario():
            reference = await replay()
            differing = [n for n in range(10) if await replay() != reference]
            assert differing == []

        run(scenario())

    def test_stopped_primary_degrades_its_keys_only(self):
        async def scenario():
            fleet = Fleet()
            await fleet.start(with_pumps=False)
            router = fleet.router(timeout=0.5)
            try:
                shard_map = ShardMap(list(fleet.addresses))
                victim = shard_map.home("full_replication", REPLICAS)[0]
                await router.lookup("hash", 1)  # cache fleet info
                await fleet.stop_shard(victim)
                requests = [(key, t) for key in KEYS for t in (1, 4, TARGET)] * 2
                report = await router.lookup_many(requests)
                hit = 0
                for (key, target), result in zip(requests, report):
                    if shard_map.home(key, REPLICAS)[0] == victim:
                        hit += 1
                        assert result.status in ("ok", "degraded"), (key, result)
                        assert result.failover
                        assert victim not in {s for s, _ in result.contacts}
                    else:
                        assert result.status == "ok", (key, target, result)
                        assert not result.failover
                assert 0 < hit < len(requests)
            finally:
                await router.close()
                await fleet.stop()

        run(scenario())

    def test_a_round_is_one_batch_frame_per_shard(self):
        requests = mixed_requests()

        async def scenario():
            fleet = Fleet()
            await fleet.start(with_pumps=False)
            seen = {n: count_envelopes(s) for n, s in fleet.services.items()}
            router = fleet.router(codec="binary")
            try:
                report = await router.lookup_many(requests)
                rounds = max(result.messages for result in report)
                carried = 0
                for name, envelopes in seen.items():
                    frames = [size for op, size in envelopes if op == "batch"]
                    assert len(frames) <= rounds, (name, frames)
                    assert not [op for op, _ in envelopes if op == "send"]
                    carried += sum(frames)
                assert carried == sum(result.messages for result in report)
            finally:
                await router.close()
                await fleet.stop()

        run(scenario())

    def test_a_chunk_longer_than_max_batch_is_windowed(self):
        async def scenario():
            fleet = Fleet()
            await fleet.start(with_pumps=False)
            for service in fleet.services.values():
                caps = dict(service.capabilities(), max_batch=4)
                service.capabilities = lambda caps=caps: dict(caps)
            seen = {n: count_envelopes(s) for n, s in fleet.services.items()}
            router = fleet.router()
            try:
                # one key, one contact each: a single 10-send round
                report = await router.lookup_many([("full_replication", 3)] * 10)
                assert report.all_success
                primary = report[0].home[0]
                frames = [size for op, size in seen[primary] if op == "batch"]
                assert frames == [4, 4, 2]
            finally:
                await router.close()
                await fleet.stop()

        run(scenario())

    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_one_shard_router_matches_plain_client(self, codec):
        # The floor the unification rests on: a router over one shard
        # *is* a client.  Server-side sampling advances the cluster
        # RNG, so each side gets its own freshly built service.
        script_rng = random.Random(17)
        script = [
            (script_rng.choice(KEYS), script_rng.choice([1, 4, TARGET, ENTRIES]))
            for _ in range(100)
        ]
        many = [6, 1, 8, 3, 6, 8, 2, 5]

        async def drive(make, lookup_many):
            service = LookupService(
                ServiceConfig(server_count=SERVERS, entry_count=ENTRIES, seed=5)
            )
            host, port = await service.start(port=0)
            client = make(host, port)
            try:
                results = [await client.lookup(key, t) for key, t in script]
                results.extend(await lookup_many(client))
                return results
            finally:
                await client.close()
                await service.stop()

        async def scenario():
            routed = await drive(
                lambda host, port: ShardRouter(
                    {"s0": (host, port)}, replicas=1, rng=random.Random(7), codec=codec
                ),
                lambda router: router.lookup_many(
                    [("full_replication", t) for t in many]
                ),
            )
            plain = await drive(
                lambda host, port: AsyncLookupClient(
                    host, port, rng=random.Random(7), codec=codec
                ),
                lambda client: client.lookup_many("full_replication", many),
            )
            assert len(routed) == len(plain) == len(script) + len(many)
            for via_router, direct in zip(routed, plain):
                assert via_router.entries == direct.entries
                assert via_router.messages == direct.messages
                assert via_router.codec == direct.codec == codec
                assert direct.servers_contacted == tuple(
                    server for _shard, server in via_router.contacts
                )

        run(scenario())
