"""Sharded service tests: role placement, membership ops, the pump.

Everything here is socket-free: envelope dispatch is pure, and the
:class:`MembershipPump`'s synchronous face (tick / on_wire_heartbeat /
view_wire) is driven with a fake clock.  The live-socket story is
covered by ``tests/net/test_router.py`` and the CI kill-a-shard smoke.
"""

import pytest

from repro.cluster.messages import Heartbeat, LookupRequest
from repro.core.entry import make_entries
from repro.core.exceptions import InvalidParameterError
from repro.net.codec import decode_heartbeat, decode_value, encode_message, heartbeat_envelope
from repro.net.membership import MembershipPump
from repro.net.service import LookupService, ServiceConfig, shard_names
from repro.net.sharding import ShardMap, partial_replica
from repro.obs.membership import MembershipObserver
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.protocol.membership import ALIVE, DEAD, MembershipConfig, SUSPECT

ENTRIES = 30
REPLICAS = 2
FRACTION = 0.25


def shard_service(index, count=3):
    return LookupService(
        ServiceConfig(
            server_count=12,
            entry_count=ENTRIES,
            seed=5,
            shard_index=index,
            shard_count=count,
            replicas=REPLICAS,
            backup_fraction=FRACTION,
        )
    )


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def pump_for(service, peers=("s0", "s1", "s2"), incarnation=1, clock=None):
    clock = clock if clock is not None else FakeClock()
    pump = MembershipPump(
        service.shard_name,
        {name: ("127.0.0.1", 1) for name in peers if name != service.shard_name},
        config=MembershipConfig(
            heartbeat_interval=0.5, suspect_after=2.0, dead_after=5.0, quarantine=3.0
        ),
        incarnation=incarnation,
        clock=clock,
    )
    service.membership = pump
    return pump, clock


class TestShardedPlacement:
    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            ServiceConfig(shard_index=3, shard_count=3)
        with pytest.raises(InvalidParameterError):
            ServiceConfig(shard_count=0)
        with pytest.raises(InvalidParameterError):
            ServiceConfig(shard_count=3, replicas=4)

    def test_shard_names(self):
        assert shard_names(3) == ["s0", "s1", "s2"]

    def test_roles_partition_matches_shard_map(self):
        shard_map = ShardMap(shard_names(3))
        services = [shard_service(i) for i in range(3)]
        for key in services[0].strategies:
            home = shard_map.home(key, REPLICAS)
            for service in services:
                expected = (
                    home.index(service.shard_name)
                    if service.shard_name in home
                    else None
                )
                assert service.roles[key] == expected

    def test_primary_places_full_set_backup_partial_others_none(self):
        services = {s.shard_name: s for s in (shard_service(i) for i in range(3))}
        shard_map = ShardMap(shard_names(3))
        entries = make_entries(ENTRIES)
        for key in services["s0"].strategies:
            primary, backup = shard_map.home(key, REPLICAS)
            # Fixed-x covers only its x chosen entries by design;
            # every other scheme covers the full placed set.
            expected_primary = 10 if key == "fixed" else ENTRIES
            assert services[primary].strategies[key].coverage() == expected_primary
            expected_backup = len(partial_replica(key, entries, 1, FRACTION))
            assert expected_backup == 8  # round(0.25 * 30)
            assert services[backup].strategies[key].coverage() == expected_backup
            (other,) = set(services) - {primary, backup}
            assert services[other].strategies[key].coverage() == 0

    def test_every_shard_reports_identical_scheme_catalogue(self):
        infos = [shard_service(i).info() for i in range(3)]
        catalogues = [info["schemes"] for info in infos]
        assert catalogues[0] == catalogues[1] == catalogues[2]
        assert [info["shard"]["index"] for info in infos] == [0, 1, 2]

    def test_unsharded_config_is_unchanged(self):
        service = LookupService(
            ServiceConfig(server_count=12, entry_count=ENTRIES, seed=5)
        )
        assert all(role == 0 for role in service.roles.values())
        assert service.info()["shard"]["count"] == 1

    def test_lookup_on_non_home_shard_answers_empty_not_error(self):
        services = {s.shard_name: s for s in (shard_service(i) for i in range(3))}
        shard_map = ShardMap(shard_names(3))
        key = "full_replication"
        home = shard_map.home(key, REPLICAS)
        (other,) = set(services) - set(home)
        reply = services[other].handle_envelope(
            {
                "op": "send",
                "server": 0,
                "key": key,
                "message": encode_message(LookupRequest(5)),
            }
        )
        assert reply["ok"]
        assert decode_value(reply["value"]) == []


class TestMembershipOps:
    def test_membership_op_without_plane_reports_self(self):
        service = LookupService(ServiceConfig())
        reply = service.handle_envelope({"op": "membership"})
        assert reply["ok"]
        assert reply["value"]["view"] == [["s0", "alive", 0]]

    def test_heartbeat_without_plane_is_bad_request(self):
        service = LookupService(ServiceConfig())
        beat = Heartbeat(sender="s1", incarnation=1, view=())
        reply = service.handle_envelope(heartbeat_envelope(beat))
        assert not reply["ok"]
        assert reply["error"] == "bad-request"

    def test_heartbeat_op_absorbs_and_replies_with_own_beat(self):
        service = shard_service(0)
        pump, clock = pump_for(service)
        clock.now = 1.0
        beat = Heartbeat(sender="s1", incarnation=7, view=())
        reply = service.handle_envelope(heartbeat_envelope(beat))
        assert reply["ok"]
        ours = decode_heartbeat(reply["value"])
        assert ours.sender == "s0"
        assert ours.incarnation == 1
        assert ("s1", ALIVE, 7) in ours.view

    def test_membership_op_reflects_detector_state(self):
        service = shard_service(0)
        pump, clock = pump_for(service)
        clock.now = 10.0
        pump.tick()
        view = {
            name: state
            for name, state, _ in service.handle_envelope({"op": "membership"})[
                "value"
            ]["view"]
        }
        assert view["s1"] == DEAD
        assert view["s2"] == DEAD
        assert view["s0"] == ALIVE

    def test_malformed_heartbeat_is_bad_request(self):
        service = shard_service(0)
        pump_for(service)
        reply = service.handle_envelope(
            {"op": "heartbeat", "message": {"!": "msg", "type": "LookupRequest",
                                           "fields": {"target": 1}}}
        )
        assert not reply["ok"]
        assert reply["error"] == "bad-request"


class TestMembershipPump:
    def test_tick_returns_due_peers_and_respects_interval(self):
        service = shard_service(0)
        pump, clock = pump_for(service)
        assert pump.tick() == ["s1", "s2"]
        clock.now = 0.2
        assert pump.tick() == []
        clock.now = 0.5
        assert pump.tick() == ["s1", "s2"]

    def test_symmetric_exchange_refreshes_both_detectors(self):
        a_service, b_service = shard_service(0), shard_service(1)
        a_pump, a_clock = pump_for(a_service)
        b_pump, b_clock = pump_for(b_service, incarnation=4)
        a_clock.now = b_clock.now = 1.0
        # a beats b (as the wire would): b absorbs, replies; a absorbs.
        reply = b_pump.on_wire_heartbeat(a_pump.local_heartbeat())
        a_pump.on_wire_heartbeat(reply)
        a_clock.now = b_clock.now = 4.0  # past suspect_after since 1.0
        a_pump.tick()
        b_pump.tick()
        assert a_pump.protocol.state_of("s1") == SUSPECT  # never heard again
        # but each holds the other's incarnation from the one exchange
        assert ("s1", SUSPECT, 4) in a_pump.protocol.wire_view()
        assert ("s0", SUSPECT, 1) in b_pump.protocol.wire_view()

    def test_transitions_reach_observer_and_gauges(self):
        service = shard_service(0)
        metrics, tracer = MetricsRegistry(), Tracer(run_id="t")
        clock = FakeClock()
        pump = MembershipPump(
            "s0",
            {"s1": ("127.0.0.1", 1), "s2": ("127.0.0.1", 2)},
            config=MembershipConfig(
                heartbeat_interval=0.5,
                suspect_after=2.0,
                dead_after=5.0,
                quarantine=3.0,
            ),
            incarnation=1,
            observer=MembershipObserver(metrics, tracer, node="s0"),
            clock=clock,
        )
        service.membership = pump
        clock.now = 6.0
        pump.tick()
        snapshot = metrics.snapshot()
        assert snapshot["membership.transitions"] == 2.0
        assert snapshot["membership.transitions.alive_to_dead"] == 2.0
        assert snapshot["membership.peers.dead"] == 2.0
        assert snapshot["membership.peers.alive"] == 0.0
        events = tracer.events("membership.transition")
        assert len(events) == 2
        assert {e.fields["peer"] for e in events} == {"s1", "s2"}
        assert all(e.fields["node"] == "s0" for e in events)
