"""End-to-end asyncio service tests: real sockets on an ephemeral port."""

import asyncio
import random
import struct

import pytest

from repro.cluster.client import RetryPolicy
from repro.net.client import AsyncLookupClient, ServiceError
from repro.net.codec import (
    CODEC_BINARY,
    CODEC_JSON,
    decode_frame_body,
    encode_envelope_as,
    encode_message,
    hello_envelope,
    read_frame,
)
from repro.net.service import DEFAULT_SCHEMES, LookupService, ServiceConfig
from repro.cluster.messages import AddRequest, LookupRequest
from repro.core.entry import Entry


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


CONFIG = ServiceConfig(server_count=12, entry_count=30, seed=7)


async def with_service(fn, config=CONFIG):
    service = LookupService(config)
    host, port = await service.start(port=0)
    try:
        return await fn(service, host, port)
    finally:
        await service.stop()


class TestEnvelopeDispatch:
    # handle_envelope is pure dispatch; no sockets needed.

    def test_ping_and_info(self):
        service = LookupService(CONFIG)
        assert service.handle_envelope({"op": "ping"})["ok"]
        info = service.handle_envelope({"op": "info"})["value"]
        assert info["servers"] == 12
        assert set(info["schemes"]) == set(DEFAULT_SCHEMES)
        assert info["schemes"]["round_robin"]["profile"]["order"] == {"stride": 2}
        assert info["schemes"]["fixed"]["profile"]["max_servers"] == 1

    def test_unknown_op_is_bad_request(self):
        service = LookupService(CONFIG)
        reply = service.handle_envelope({"op": "launch"})
        assert not reply["ok"]
        assert reply["error"] == "bad-request"

    def test_send_routes_through_network_accounting(self):
        service = LookupService(CONFIG)
        before = service.cluster.network.stats.total
        reply = service.handle_envelope(
            {
                "op": "send",
                "server": 0,
                "key": "hash",
                "message": encode_message(LookupRequest(3)),
            }
        )
        assert reply["ok"]
        assert service.cluster.network.stats.total == before + 1

    def test_send_to_failed_server_is_unavailable(self):
        service = LookupService(CONFIG)
        service.cluster.fail(4)
        reply = service.handle_envelope(
            {
                "op": "send",
                "server": 4,
                "key": "hash",
                "message": encode_message(LookupRequest(3)),
            }
        )
        assert not reply["ok"]
        assert reply["error"] == "unavailable"

    def test_send_validation(self):
        service = LookupService(CONFIG)
        bad_server = service.handle_envelope(
            {"op": "send", "server": 99, "key": "hash", "message": {}}
        )
        assert bad_server["error"] == "bad-request"
        bad_key = service.handle_envelope(
            {
                "op": "send",
                "server": 0,
                "key": "nope",
                "message": encode_message(LookupRequest(1)),
            }
        )
        assert bad_key["error"] == "bad-request"

    def test_update_via_send_is_visible_to_lookups(self):
        service = LookupService(CONFIG)
        reply = service.handle_envelope(
            {
                "op": "send",
                "server": 1,
                "key": "full_replication",
                "message": encode_message(AddRequest(Entry("fresh"))),
            }
        )
        assert reply["ok"]
        verify = service.handle_envelope(
            {"op": "verify", "key": "full_replication"}
        )["value"]
        assert verify["coverage"] == CONFIG.entry_count + 1

    @pytest.mark.parametrize("store", ["memory", "log"])
    def test_non_string_entry_id_is_refused_before_anything_is_applied(
        self, store, tmp_path
    ):
        # One JSON frame used to poison a scheme for every binary
        # client: the int-id entry was stored (and journaled), and the
        # dense-id regex then failed every full-store binary reply.
        config = ServiceConfig(
            server_count=12, entry_count=30, seed=7, store=store,
            data_dir=str(tmp_path) if store == "log" else None,
        )
        service = LookupService(config)
        message = encode_message(AddRequest(Entry("fresh")))
        message["fields"]["entry"]["id"] = 7
        records = service.journal.log_records if store == "log" else None
        reply = service.handle_envelope(
            {"op": "send", "server": 1, "key": "full_replication", "message": message}
        )
        assert not reply["ok"]
        assert reply["error"] == "bad-request"
        verify = service.handle_envelope(
            {"op": "verify", "key": "full_replication"}
        )["value"]
        assert verify["coverage"] == config.entry_count
        lookup0 = {
            "op": "send", "server": 1, "key": "full_replication",
            "message": LookupRequest(0),
        }
        assert service.handle_envelope(lookup0, raw=True)["ok"]
        if store == "log":
            assert service.journal.log_records == records
            service.journal.close()


def _send_as(service, codec, server, key, message):
    """One ``send`` through ``codec``'s real frame encode/decode."""
    binary = codec == CODEC_BINARY
    envelope = {
        "op": "send",
        "server": server,
        "key": key,
        "message": message if binary else encode_message(message),
    }
    wire = decode_frame_body(encode_envelope_as(envelope, codec)[4:])
    return service.handle_envelope(wire, raw=binary)


@pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BINARY])
class TestSendTypeChecks:
    """Wire values of the wrong *type* are refused, not coerced."""

    def test_boolean_is_not_a_server_id(self, codec):
        # `true` is an int to isinstance(); it used to be served as
        # server 1.
        service = LookupService(CONFIG)
        before = service.cluster.network.stats.total
        for server in (True, False):
            reply = _send_as(service, codec, server, "fixed", LookupRequest(3))
            assert not reply["ok"]
            assert reply["error"] == "bad-request"
            assert "server id out of range" in reply["detail"]
        assert service.cluster.network.stats.total == before
        assert _send_as(service, codec, 1, "fixed", LookupRequest(3))["ok"]

    @pytest.mark.parametrize(
        "target", [2.0, -0.5, 0.25, 1e9, True, "3", None, [1]], ids=repr
    )
    def test_non_integer_lookup_target_is_refused_before_cache_and_store(
        self, codec, target
    ):
        # -0.5 and 1e9 used to be *served*, each filling its own
        # reply-cache row; 2.0 died inside sample() and leaked the
        # TypeError text as the detail.
        service = LookupService(CONFIG)
        cached = service.reply_cache.snapshot()["size"]
        rng_state = service.cluster.rng.getstate()
        served = service.cluster.network.stats.total
        reply = _send_as(service, codec, 1, "round_robin", LookupRequest(target))
        assert not reply["ok"]
        assert reply["error"] == "bad-request"
        assert "lookup target must be an integer" in reply["detail"]
        assert service.reply_cache.snapshot()["size"] == cached
        assert service.cluster.rng.getstate() == rng_state
        assert service.cluster.network.stats.total == served
        assert _send_as(service, codec, 1, "round_robin", LookupRequest(0))["ok"]
        assert service.reply_cache.snapshot()["size"] == cached + 1


#: One frame body per codec nested far past the recursion limit: a
#: list in a list 5,000 deep, and a JSON array 100,000 deep.
DEEP_BODIES = {
    CODEC_BINARY: b"\xb1\x01\x00" + b"\x06\x01" * 5000 + b"\x00",
    CODEC_JSON: b'{"op":"ping","x":' + b"[" * 100_000 + b"]" * 100_000 + b"}",
}


async def _open_as(host, port, codec):
    """A raw connection whose replies arrive in ``codec``."""
    reader, writer = await asyncio.open_connection(host, port)
    if codec == CODEC_BINARY:
        writer.write(encode_envelope_as(hello_envelope((CODEC_BINARY,)), CODEC_JSON))
        assert (await read_frame(reader))["value"]["codec"] == CODEC_BINARY
    return reader, writer


def _collect_unhandled():
    """Everything asyncio would log as an unhandled exception, from now on."""
    seen = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: seen.append(context)
    )
    return seen


@pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BINARY])
class TestHostileFrames:
    """Nothing a peer sends, and nothing the service cannot frame,
    escapes the connection handler's error boundary."""

    def test_deeply_nested_frame_drops_the_connection(self, codec):
        body = DEEP_BODIES[codec]

        async def scenario(service, host, port):
            unhandled = _collect_unhandled()
            reader, writer = await _open_as(host, port, codec)
            writer.write(struct.pack(">I", len(body)) + body)
            assert await reader.read() == b""  # dropped, no reply
            writer.close()
            await writer.wait_closed()
            async with AsyncLookupClient(host, port) as client:
                assert await client.ping()
            return unhandled

        assert run(with_service(scenario)) == []

    def test_unframeable_reply_is_refused_and_the_connection_lives(
        self, codec, monkeypatch
    ):
        # A whole-store reply of 1,500 entries against a 1 KiB frame
        # bound: the request frame fits, its reply does not.
        config = ServiceConfig(server_count=4, entry_count=1500, seed=7)
        message = LookupRequest(0)
        envelope = {
            "op": "send",
            "id": "big",
            "server": 0,
            "key": "full_replication",
            "message": message if codec == CODEC_BINARY else encode_message(message),
        }

        async def scenario(service, host, port):
            unhandled = _collect_unhandled()
            reader, writer = await _open_as(host, port, codec)
            monkeypatch.setattr("repro.net.codec.MAX_FRAME", 1024)
            writer.write(encode_envelope_as(envelope, codec))
            refused = await read_frame(reader)
            writer.write(encode_envelope_as({"op": "ping"}, codec))
            pong = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return refused, pong, unhandled

        refused, pong, unhandled = run(with_service(scenario, config))
        assert refused["ok"] is False and refused["error"] == "bad-request"
        assert refused["detail"].startswith("reply frame too large: ")
        assert refused["id"] == "big"
        assert pong == {"ok": True, "value": "pong"}
        assert unhandled == []


class TestOverSockets:
    def test_all_schemes_complete_partial_lookups(self):
        async def scenario(service, host, port):
            outcomes = {}
            async with AsyncLookupClient(host, port, rng=random.Random(3)) as client:
                assert await client.ping()
                for scheme in sorted(DEFAULT_SCHEMES):
                    result = await client.lookup(scheme, 8)
                    outcomes[scheme] = result
            return outcomes

        outcomes = run(with_service(scenario))
        for scheme, result in outcomes.items():
            assert result.success, scheme
            assert len(result.entries) == 8
            ids = [e.entry_id for e in result.entries]
            assert len(set(ids)) == 8

    def test_max_servers_profile_respected_over_wire(self):
        async def scenario(service, host, port):
            async with AsyncLookupClient(host, port, rng=random.Random(1)) as client:
                return await client.lookup("full_replication", 8)

        result = run(with_service(scenario))
        assert result.messages == 1
        assert len(result.servers_contacted) == 1

    def test_failed_server_surfaces_as_failed_contact(self):
        async def scenario(service, host, port):
            service.cluster.fail(2)
            service.cluster.fail(5)
            async with AsyncLookupClient(host, port, rng=random.Random(2)) as client:
                return await client.lookup("hash", 25)

        result = run(with_service(scenario))
        assert result.success
        assert set(result.failed_contacts) <= {2, 5}
        assert not {2, 5} & set(result.servers_contacted)

    def test_retry_policy_reruns_failed_contacts(self):
        async def scenario(service, host, port):
            # Fail everything but two servers so the first pass comes
            # up short, then recover before the retry pass.
            for sid in range(2, service.cluster.size):
                service.cluster.fail(sid)
            policy = RetryPolicy(
                max_attempts=2, base_backoff=0.05, jitter=0.0, backoff_budget=5.0
            )
            client = AsyncLookupClient(
                host, port, rng=random.Random(5), retry_policy=policy
            )
            async with client:
                info = await client.info()
                task = asyncio.ensure_future(client.lookup("hash", 25))
                await asyncio.sleep(0.02)
                for sid in range(2, service.cluster.size):
                    service.cluster.recover(sid)
                return await task

        result = run(with_service(scenario))
        assert result.retries == 1
        assert result.backoff > 0

    def test_unknown_scheme_raises(self):
        async def scenario(service, host, port):
            async with AsyncLookupClient(host, port) as client:
                with pytest.raises(ServiceError, match="does not host"):
                    await client.lookup("zigzag", 5)

        run(with_service(scenario))

    def test_verify_reports_invariants(self):
        async def scenario(service, host, port):
            async with AsyncLookupClient(host, port) as client:
                return await client.verify("round_robin")

        verify = run(with_service(scenario))
        assert verify["coverage"] == CONFIG.entry_count
        assert verify["storage_cost"] == 2 * CONFIG.entry_count
        assert verify["operational"] == CONFIG.server_count

    def test_many_clients_interleave(self):
        async def scenario(service, host, port):
            async def one(seed):
                async with AsyncLookupClient(
                    host, port, rng=random.Random(seed)
                ) as client:
                    return await client.lookup("round_robin", 8)

            return await asyncio.gather(*(one(seed) for seed in range(8)))

        results = run(with_service(scenario))
        assert all(r.success for r in results)

    def test_request_timeout_becomes_dropped_contact(self):
        async def scenario(service, host, port):
            # A server that never replies: swap the envelope handler
            # for one that stalls longer than the client timeout.
            real = service.handle_envelope
            stall = {"first": True}

            async def handler(reader, writer):
                from repro.net.codec import read_frame, write_frame

                while True:
                    envelope = await read_frame(reader)
                    if envelope is None:
                        break
                    if envelope.get("op") == "send" and stall.pop("first", False):
                        await asyncio.sleep(10)  # > client timeout
                    await write_frame(writer, real(envelope))

            service.handle_connection = handler  # monkeypatch the instance
            await service.stop()
            server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
            sock_host, sock_port = server.sockets[0].getsockname()[:2]
            try:
                client = AsyncLookupClient(
                    sock_host,
                    sock_port,
                    rng=random.Random(4),
                    timeout=0.2,
                    retry_policy=RetryPolicy(
                        max_attempts=2, base_backoff=0.01, jitter=0.0
                    ),
                )
                async with client:
                    result = await client.lookup("hash", 5)
            finally:
                server.close()
                await server.wait_closed()
            return result

        result = run(with_service(scenario))
        # The stalled contact was reported dropped and retried on a
        # fresh connection; the lookup still completed.
        assert result.success
        assert result.retries <= 1

    def test_clean_stop_with_live_connection(self):
        async def scenario(service, host, port):
            client = AsyncLookupClient(host, port)
            await client.connect()
            assert await client.ping()
            await service.stop()
            await client.close()
            return True

        async def runner():
            service = LookupService(CONFIG)
            host, port = await service.start(port=0)
            return await scenario(service, host, port)

        assert run(runner())
