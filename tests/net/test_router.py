"""ShardRouter tests: an in-process fleet on real sockets.

These cover the routing layer's contract — membership-aware candidate
selection, failover to partial backups, degraded-never-raised results
— against live :class:`LookupService` instances.  The full
subprocess + SIGKILL story lives in ``scripts/shard_chaos_smoke.py``.
"""

import asyncio
import random

import pytest

from repro.net.client import ServiceError
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
