"""AsyncLookupClient reconnect-after-timeout behaviour.

The wire protocol has no request ids — correctness after a timeout
rests entirely on the client abandoning the old stream.  These tests
pin that down against a hostile in-process server:

- a reply that arrives *after* the client timed out is never matched
  to the next request (the next request runs on a fresh connection,
  and the stale connection is gone);
- enacted backoff sleeps follow the :class:`RetryPolicy` schedule and
  stop when the remaining budget is exhausted.
"""

import asyncio
import random

import pytest

from repro.cluster.client import RetryPolicy
from repro.cluster.messages import LookupRequest
from repro.net.client import AsyncLookupClient
from repro.net.codec import read_frame, write_frame
from repro.net.router import ShardRouter
from repro.net.service import LookupService, ServiceConfig
from repro.protocol.events import ContactFailed, ReplyReceived


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


#: The genuine sleep, captured before any test monkeypatches
#: ``asyncio.sleep`` to observe the client's backoff schedule — the
#: hostile servers below must still be able to stall for real.
REAL_SLEEP = asyncio.sleep


class SlowThenHonestServer:
    """First request: reply late (past the client timeout), tagged so a
    mismatched delivery is detectable.  Every later request: reply
    immediately, tagged with its own sequence number."""

    def __init__(self, late_by=0.6):
        self.late_by = late_by
        self.request_seq = 0
        self.stale_write_failed = False
        self._server = None

    async def handle(self, reader, writer):
        try:
            while True:
                envelope = await read_frame(reader)
                if envelope is None:
                    break
                self.request_seq += 1
                seq = self.request_seq
                if seq == 1:
                    await REAL_SLEEP(self.late_by)
                try:
                    await write_frame(writer, {"ok": True, "value": f"reply-{seq}"})
                except (ConnectionError, OSError):
                    # The client hung up — the stale reply went nowhere.
                    self.stale_write_failed = True
                    break
        except (ConnectionError, OSError):
            self.stale_write_failed = True
        finally:
            writer.close()

    async def start(self):
        self._server = await asyncio.start_server(self.handle, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self):
        self._server.close()
        await self._server.wait_closed()


class TestStaleReplies:
    def test_late_reply_never_matches_next_request(self):
        async def scenario():
            server = SlowThenHonestServer(late_by=0.6)
            host, port = await server.start()
            client = AsyncLookupClient(host, port, timeout=0.2)
            try:
                first = await client.contact_server(3, "hash", LookupRequest(2))
                assert isinstance(first, ContactFailed)
                assert first.server_id == 3
                assert first.dropped  # a timeout is a lost message
                # The next contact must see *its own* reply, not the
                # first request's late one.
                second = await client.contact_server(4, "hash", LookupRequest(2))
                assert isinstance(second, ReplyReceived)
                assert second.server_id == 4
                # "reply-2" proves the second request was answered by
                # its own reply; the late "reply-1" went to the closed
                # stream, never to this request.
                assert second.entries == "reply-2"
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_timeout_reconnect_uses_fresh_connection(self):
        async def scenario():
            server = SlowThenHonestServer(late_by=0.6)
            host, port = await server.start()
            client = AsyncLookupClient(host, port, timeout=0.2)
            try:
                await client.contact_server(0, "hash", LookupRequest(1))
                writer_after_timeout = client._writer
                assert writer_after_timeout is not None
                third = await client.contact_server(1, "hash", LookupRequest(1))
                assert isinstance(third, ReplyReceived)
                # Same (fresh) connection serves subsequent requests.
                assert client._writer is writer_after_timeout
            finally:
                await client.close()
                await server.stop()

        run(scenario())


class TestTimeoutScope:
    """The per-contact timeout is a scope on the caller's own task."""

    def test_contacts_create_no_tasks(self):
        async def scenario():
            service = LookupService(
                ServiceConfig(server_count=12, entry_count=30, seed=7)
            )
            host, port = await service.start(port=0)
            client = AsyncLookupClient(host, port, timeout=5.0)
            loop = asyncio.get_running_loop()
            created = []

            def counting_factory(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            try:
                # Dial first: the service's per-connection task is the
                # one Task this exchange legitimately owns.
                await client.contact_server(0, "hash", LookupRequest(3))
                loop.set_task_factory(counting_factory)
                for n in range(100):
                    event = await client.contact_server(
                        n % 12, "hash", LookupRequest(3)
                    )
                    assert isinstance(event, ReplyReceived)
                loop.set_task_factory(None)
                assert created == []
            finally:
                await client.close()
                await service.stop()

        run(scenario())

    def test_routed_lookups_create_no_tasks(self):
        # The router has no pump of its own: a routed lookup is the
        # same Task-free contact, through a routing table.
        async def scenario():
            shards = [
                LookupService(
                    ServiceConfig(
                        server_count=12, entry_count=30, seed=7,
                        shard_index=i, shard_count=2, replicas=2,
                    )
                )
                for i in range(2)
            ]
            addresses = {s.shard_name: await s.start(port=0) for s in shards}
            router = ShardRouter(
                addresses, replicas=2, rng=random.Random(7), timeout=5.0
            )
            loop = asyncio.get_running_loop()
            created = []

            def counting_factory(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            keys = sorted(shards[0].strategies)
            try:
                # Dial every shard first: a service's per-connection
                # task is the one Task a connection legitimately owns.
                for client in router._clients.values():
                    await client.connect()
                await router.lookup("hash", 3)  # info + membership view
                loop.set_task_factory(counting_factory)
                for n in range(100):
                    result = await router.lookup(keys[n % len(keys)], 30)
                    assert result.messages >= 1
                loop.set_task_factory(None)
                assert created == []
            finally:
                await router.close()
                for shard in shards:
                    await shard.stop()

        run(scenario())

    def test_stalled_peer_fails_on_time_and_next_contact_redials(self):
        async def scenario():
            server = SlowThenHonestServer(late_by=0.8)
            host, port = await server.start()
            client = AsyncLookupClient(host, port, timeout=0.2)
            loop = asyncio.get_running_loop()
            try:
                await client.connect()
                stalled_writer = client._writer
                started = loop.time()
                first = await client.contact_server(3, "hash", LookupRequest(2))
                elapsed = loop.time() - started
                assert isinstance(first, ContactFailed)
                assert first.server_id == 3 and first.dropped
                # The scope fired at the timeout, not at the late reply.
                assert 0.2 <= elapsed < 0.8
                assert client._writer is not None
                assert client._writer is not stalled_writer
                second = await client.contact_server(4, "hash", LookupRequest(2))
                assert isinstance(second, ReplyReceived)
                assert second.entries == "reply-2"
            finally:
                await client.close()
                await server.stop()

        run(scenario())


class AlwaysLateServer:
    """Every reply is slower than the client timeout: the lookup can
    only end by exhausting its retry schedule."""

    def __init__(self, late_by=0.5):
        self.late_by = late_by
        self._server = None

    async def handle(self, reader, writer):
        try:
            while True:
                envelope = await read_frame(reader)
                if envelope is None:
                    break
                if envelope.get("op") == "info":
                    await write_frame(writer, {"ok": True, "value": INFO})
                    continue
                await REAL_SLEEP(self.late_by)
                await write_frame(writer, {"ok": True, "value": []})
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    async def start(self):
        self._server = await asyncio.start_server(self.handle, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self):
        self._server.close()
        await self._server.wait_closed()


INFO = {
    "servers": 2,
    "entries": 4,
    "seed": 0,
    "schemes": {
        "hash": {
            "params": {"y": 2},
            "profile": {"order": "random", "max_servers": None},
        }
    },
}


class TestBackoffBudget:
    def test_sleeps_follow_policy_and_respect_budget(self, monkeypatch):
        # A budget below the first delay: the session must give up
        # without sleeping at all, despite max_attempts allowing more.
        policy = RetryPolicy(
            max_attempts=5,
            base_backoff=2.0,
            backoff_multiplier=2.0,
            backoff_budget=1.0,
            jitter=0.0,
        )
        slept = []

        async def fake_sleep(delay):
            slept.append(delay)

        import repro.net.client as client_module

        monkeypatch.setattr(client_module.asyncio, "sleep", fake_sleep)

        async def scenario():
            server = AlwaysLateServer(late_by=0.5)
            host, port = await server.start()
            client = AsyncLookupClient(
                host, port, rng=random.Random(3), timeout=0.1, retry_policy=policy
            )
            try:
                result = await client.lookup("hash", 3)
                assert not result.success
                assert result.retries == 0
                assert slept == []
                assert sum(slept) <= policy.backoff_budget
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_backoff_schedule_is_enacted_within_budget(self, monkeypatch):
        policy = RetryPolicy(
            max_attempts=3,
            base_backoff=0.25,
            backoff_multiplier=2.0,
            backoff_budget=10.0,
            jitter=0.0,
        )
        slept = []

        async def fake_sleep(delay):
            slept.append(delay)

        import repro.net.client as client_module

        monkeypatch.setattr(client_module.asyncio, "sleep", fake_sleep)

        async def scenario():
            server = AlwaysLateServer(late_by=0.5)
            host, port = await server.start()
            client = AsyncLookupClient(
                host, port, rng=random.Random(3), timeout=0.1, retry_policy=policy
            )
            try:
                result = await client.lookup("hash", 3)
                assert not result.success
                # Two retry passes after the first: delays 0.25, 0.5.
                assert result.retries == 2
                assert slept == [0.25, 0.5]
                assert sum(slept) <= policy.backoff_budget
                assert result.backoff == sum(slept)
            finally:
                await client.close()
                await server.stop()

        run(scenario())


class TestRemovedRequestShim:
    def test_other_missing_attributes_raise_plainly(self):
        # the long-removed request() is a missing attribute like any
        # other: no special-cased hint
        client = AsyncLookupClient("127.0.0.1", 1)
        for name in ("request", "no_such_method"):
            with pytest.raises(AttributeError, match="no attribute"):
                getattr(client, name)
