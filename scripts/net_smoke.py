#!/usr/bin/env python
"""Live-service smoke: boot ``repro serve``, drive ``repro call``, tear down.

CI's net-smoke job runs this script.  It starts the asyncio lookup
service as a real subprocess on an ephemeral port, waits for the
``--ready-file`` handshake, then runs ``repro call`` partial lookups
against every hosted scheme — checking, per scheme, that:

- every lookup met its target (``all_success``),
- the returned entry ids are distinct and drawn from the placed
  universe ``v1..vH``,
- the service's ``verify`` op reports full coverage (every placed
  entry retrievable from operational servers) and the scheme's exact
  expected storage cost.

It then asserts the CLI's exit-code contract — 0 for lookups that met
their target, 3 (degraded) for short-but-non-empty answers, 4 (failed)
for empty answers — by asking ``fixed`` for more entries than its x=10
subset holds, and by querying a lone shard that is not home to the
key at all.  Every contract point is asserted twice: once on the
sequential JSON path and once with ``--codec binary --batch N``
(pipelined batched lookups over the negotiated binary codec), which
must produce identical summaries and exit codes.

The same contract then runs against a ``serve --workers 2`` fleet
(SO_REUSEPORT multi-process serve): every scheme answers through the
fleet, degraded/failed exits hold, a reader worker answers each lookup
of a write-carrying batch after exactly the writes before it (both
writes cross the writer pipe in one frame), one SIGTERM to the parent
tears down every worker (verified by pid), a SIGKILLed fleet leaves no
worker behind, and the ``info.capabilities`` cache
counters show real hot-key hits — written out as a JSON artifact
with ``--cache-stats PATH`` for CI to upload.

Finally the durability contract: a ``serve --store log`` service is
populated, SIGKILLed mid-workload (no shutdown path runs), left with a
torn journal tail, and restarted on the same data directory — the
recovered process must report ``storage.recovered`` and serve raw
binary reply frames that are byte-for-byte identical to the pre-crash
control's, mutation included; a mutation it makes itself must survive
a second SIGKILL and restart.

Every ``serve`` is launched through
:class:`repro.chaos.process.ServeProcess`.  A server is terminated
with SIGTERM and must exit cleanly within the grace period; any
leftover process is killed and reported as a failure.  The whole
script is bounded by ``--timeout`` (default 120 s) so a wedged service
fails fast instead of hanging the job.

Usage: ``PYTHONPATH=src python scripts/net_smoke.py [--timeout 120]``
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

from repro.chaos.process import ServeProcess, wait_gone

SERVERS = 12
ENTRIES = 30
SEED = 5
TARGET = 8
LOOKUPS = 3

#: ``serve`` arguments every leg shares.
SERVE_ARGS = [
    "--port", "0", "--servers", str(SERVERS), "--entries", str(ENTRIES), "--seed", str(SEED),
]

X = 10  # fixed / random_server subset size
Y = 2  # round_robin / hash copy count

#: scheme -> (expected coverage, (min, max) storage) for the service
#: defaults above.  Fixed-x is partial *by design* (covers only its x
#: chosen entries); Hash-y's storage dips below y*h when hash
#: functions collide; everything else is exact.
EXPECTED = {
    "full_replication": (ENTRIES, (SERVERS * ENTRIES, SERVERS * ENTRIES)),
    "fixed": (X, (SERVERS * X, SERVERS * X)),
    "random_server": (ENTRIES, (SERVERS * X, SERVERS * X)),
    "round_robin": (ENTRIES, (Y * ENTRIES, Y * ENTRIES)),
    "hash": (ENTRIES, (ENTRIES, Y * ENTRIES)),
}


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def stop_cleanly(server: ServeProcess, label: str) -> None:
    """SIGTERM ``server``; it must exit 0 and say ``[serve] stopped``."""
    code = server.stop()
    output = server.output()
    if code != 0:
        fail(f"{label} exited {code}:\n{output}")
    if "[serve] stopped" not in output:
        fail(f"{label} did not report a clean stop:\n{output}")


def run_call(
    scheme: str,
    host: str,
    port: int,
    deadline: float,
    *,
    target: int = TARGET,
    verify: bool = True,
    expect: int = 0,
    codec: str = "json",
    batch: int = 1,
) -> dict:
    command = [
        sys.executable,
        "-m",
        "repro",
        "call",
        scheme,
        "--host",
        host,
        "--port",
        str(port),
        "--target",
        str(target),
        "--count",
        str(LOOKUPS),
        "--seed",
        "11",
        "--codec",
        codec,
        "--batch",
        str(batch),
    ]
    if verify:
        command.append("--verify")
    budget = max(1.0, deadline - time.monotonic())
    result = subprocess.run(
        command, capture_output=True, text=True, timeout=budget
    )
    if result.returncode != expect:
        fail(
            f"repro call {scheme} exited {result.returncode}, want {expect}:\n"
            f"{result.stdout}\n{result.stderr}"
        )
    summary = json.loads(result.stdout)
    if summary.get("exit_code") != expect:
        fail(
            f"{scheme}: summary exit_code {summary.get('exit_code')} "
            f"disagrees with process exit {expect}"
        )
    return summary


def check_scheme(scheme: str, summary: dict, label: str = "") -> None:
    if not summary["all_success"]:
        fail(f"{scheme}: lookup(s) missed the target: {summary}")
    universe = {f"v{i}" for i in range(1, ENTRIES + 1)}
    for lookup in summary["lookups"]:
        ids = lookup["entries"]
        if len(ids) != len(set(ids)):
            fail(f"{scheme}: duplicate entries in one lookup answer: {ids}")
        if len(ids) != TARGET:
            fail(f"{scheme}: got {len(ids)} entries, want {TARGET}")
        stray = set(ids) - universe
        if stray:
            fail(f"{scheme}: entries outside the placed universe: {stray}")
    verify = summary["verify"]
    coverage, (storage_low, storage_high) = EXPECTED[scheme]
    if verify["coverage"] != coverage:
        fail(f"{scheme}: coverage {verify['coverage']} != {coverage}")
    if not storage_low <= verify["storage_cost"] <= storage_high:
        fail(
            f"{scheme}: storage {verify['storage_cost']} outside "
            f"[{storage_low}, {storage_high}]"
        )
    if verify["operational"] != SERVERS:
        fail(f"{scheme}: {verify['operational']} operational servers != {SERVERS}")
    print(
        f"ok {scheme}{label}: {LOOKUPS} lookups x {TARGET} entries, "
        f"coverage {verify['coverage']}/{ENTRIES}, "
        f"storage {verify['storage_cost']}"
    )


def check_degraded_exit(
    host: str, port: int, deadline: float, *, codec: str = "json", batch: int = 1
) -> None:
    # ``fixed`` hosts only its X chosen entries; asking for more is
    # answerable-but-short — degraded (3), never failed (4).
    summary = run_call(
        "fixed",
        host,
        port,
        deadline,
        target=X + 2,
        verify=False,
        expect=3,
        codec=codec,
        batch=batch,
    )
    for lookup in summary["lookups"]:
        if lookup["found"] != X or lookup["success"]:
            fail(f"degraded call: expected {X} found and no success: {lookup}")
        if not lookup["degraded"]:
            fail(f"degraded call: row not marked degraded: {lookup}")
    label = f" [{codec}, batch {batch}]" if batch > 1 else ""
    print(
        f"ok exit-code {summary['exit_code']}{label}: "
        "short non-empty answer is degraded"
    )


def check_failed_exit(deadline: float) -> None:
    # A lone shard that is not home to ``fixed`` truthfully answers
    # empty; an empty answer with a positive target is failed (4).
    with ServeProcess([*SERVE_ARGS, "--shard", "0/3"]) as server:
        for codec, batch in (("json", 1), ("binary", LOOKUPS)):
            summary = run_call(
                "fixed",
                server.host,
                server.port,
                deadline,
                verify=False,
                expect=4,
                codec=codec,
                batch=batch,
            )
            for lookup in summary["lookups"]:
                if lookup["found"] != 0:
                    fail(f"failed call: non-home shard answered data: {lookup}")
            label = f" [{codec}, batch {batch}]" if batch > 1 else ""
            print(
                f"ok exit-code {summary['exit_code']}{label}: "
                "empty answer from a non-home shard is failed"
            )
        server.stop()


def collect_cache_stats(host: str, port: int) -> dict:
    """Drive repeated hot-key lookups on one connection, read counters.

    ``full_replication`` lookups for the whole store are the cacheable
    hot path (no RNG sampling), so after the first round every send is
    a cache hit on whichever process serves this connection; the
    ``info.capabilities.cache`` block is that process's live ledger.
    """
    import asyncio

    from repro.net.client import AsyncLookupClient

    async def probe() -> dict:
        client = AsyncLookupClient(host, port, codec="binary")
        async with client:
            for _ in range(12):
                result = await client.lookup("full_replication", ENTRIES)
                if len(result) != ENTRIES:
                    fail(f"cache probe lookup got {len(result)}/{ENTRIES}")
            return await client.capabilities()

    caps = asyncio.run(asyncio.wait_for(probe(), timeout=30))
    cache = caps.get("cache") or {}
    if not cache.get("enabled"):
        fail(f"reply cache not enabled in capabilities: {caps}")
    if cache.get("hits", 0) <= 0:
        fail(f"hot-key probe produced no cache hits: {cache}")
    print(
        f"ok cache: {cache['hits']} hits / {cache['misses']} misses "
        f"on worker {caps.get('workers', {}).get('index', 0)} "
        f"(role {caps.get('workers', {}).get('role', 'single')})"
    )
    return caps


def check_cached_frame_identity(host: str, port: int) -> None:
    """A prepacked or cached reply body never changes a frame's bytes.

    Two assertions: (1) locally, a frame carrying a prepacked
    sub-reply is the bytes of the same frame packed from the plain
    reply dict; (2) on the wire, a cacheable lookup asked twice on one
    binary connection answers with identical raw reply frames — the
    first reply was packed cold, the second copied out of the reply
    cache, and neither may differ from the other by even one byte.
    """
    import asyncio
    import struct

    from repro.cluster.messages import LookupRequest
    from repro.net.codec import (
        CODEC_BINARY,
        encode_envelope_as,
        encode_envelope_fragments,
        encode_message,
        hello_envelope,
        pack_send_reply,
        read_frame,
        write_frame,
    )
    from repro.core.entry import Entry

    entries = tuple(Entry(f"v{i}") for i in range(1, 200))
    prepacked = {"op": "batch", "value": [pack_send_reply(7, entries)]}
    plain = {"op": "batch", "value": [{"ok": True, "value": entries, "id": 7}]}
    joined = b"".join(bytes(b) for b in encode_envelope_fragments(prepacked))
    if joined != encode_envelope_as(plain, CODEC_BINARY):
        fail("prepacked reply frame diverged from the plainly packed one")

    async def probe() -> tuple[bytes, bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await write_frame(writer, hello_envelope((CODEC_BINARY,)))
            hello = await read_frame(reader)
            if not (hello and hello.get("ok")):
                fail(f"cached-frame probe hello failed: {hello}")
            lookup = {
                "op": "send",
                "server": 0,
                "key": "full_replication",
                "message": encode_message(LookupRequest(0)),
            }
            frames = []
            for _ in range(2):
                await write_frame(writer, dict(lookup), codec=CODEC_BINARY)
                (length,) = struct.unpack(">I", await reader.readexactly(4))
                frames.append(await reader.readexactly(length))
            return frames[0], frames[1]
        finally:
            writer.close()
            await writer.wait_closed()

    cold, cached = asyncio.run(asyncio.wait_for(probe(), timeout=30))
    if cold != cached:
        fail("cached reply differs from the cold reply bytes")
    print(f"ok cached frame: cold and cached replies byte-identical ({len(cold)}B)")


def check_log_store_recovery(data_root: str) -> None:
    """``serve --store log``: SIGKILL mid-workload, restart, identical bytes.

    The control replies are captured from the *uncrashed* service right
    after a post-boot mutation, as raw binary reply frames.  The server
    is then SIGKILLed — no shutdown hook, no final flush beyond the
    journal's per-mutation write barrier — and a torn fragment is
    appended to the newest log, as if the kill had cut a write short.
    The restarted service must report ``storage.recovered`` in its
    capabilities and answer every (scheme, server) full-store lookup
    with frames byte-for-byte equal to the control's
    (``LookupRequest(target=0)`` consumes no RNG, so the replies are a
    pure function of durable state).  It then makes one mutation of its
    own and is SIGKILLed again: the second restart must still hold that
    mutation — the first restart may not have appended it to the
    fragment — and answer byte-for-byte as before the second kill.
    """
    import asyncio
    import glob
    import struct

    from repro.cluster.messages import AddRequest, LookupRequest
    from repro.core.entry import Entry
    from repro.net.codec import (
        CODEC_BINARY,
        decode_frame_body,
        encode_message,
        hello_envelope,
        read_frame,
        write_frame,
    )

    data_dir = os.path.join(data_root, "log-store-data")
    os.makedirs(data_dir, exist_ok=True)

    async def mutate(host: str, port: int, entry_id: str) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await write_frame(
                writer,
                {
                    "op": "send",
                    "server": 0,
                    "key": "full_replication",
                    "message": encode_message(AddRequest(Entry(entry_id))),
                },
            )
            reply = await read_frame(reader)
            if not (isinstance(reply, dict) and reply.get("ok")):
                fail(f"log-store mutation failed: {reply!r}")
        finally:
            writer.close()
            await writer.wait_closed()

    async def capture(host: str, port: int) -> list[bytes]:
        reader, writer = await asyncio.open_connection(host, port)
        frames: list[bytes] = []
        try:
            await write_frame(writer, hello_envelope((CODEC_BINARY,)))
            hello = await read_frame(reader)
            if not (hello and hello.get("ok")):
                fail(f"log-store probe hello failed: {hello}")
            for scheme in sorted(EXPECTED):
                for server_id in range(SERVERS):
                    await write_frame(
                        writer,
                        {
                            "op": "send",
                            "server": server_id,
                            "key": scheme,
                            "message": encode_message(LookupRequest(0)),
                        },
                        codec=CODEC_BINARY,
                    )
                    (length,) = struct.unpack(">I", await reader.readexactly(4))
                    frames.append(await reader.readexactly(length))
        finally:
            writer.close()
            await writer.wait_closed()
        return frames

    async def storage_caps(host: str, port: int) -> dict:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await write_frame(writer, {"op": "info"})
            info = await read_frame(reader)
        finally:
            writer.close()
            await writer.wait_closed()
        caps = ((info or {}).get("value") or {}).get("capabilities") or {}
        return dict(caps.get("storage") or {})

    def run(coro):
        return asyncio.run(asyncio.wait_for(coro, timeout=30))

    def restart(server: ServeProcess, label: str) -> dict:
        server.restart()
        caps = run(storage_caps(server.host, server.port))
        if caps.get("kind") != "log" or not caps.get("recovered"):
            fail(f"{label} log-store service did not recover: {caps}")
        return caps

    def same_frames(control: list[bytes], recovered: list[bytes], label: str) -> None:
        if recovered != control:
            diff = sum(1 for a, b in zip(control, recovered) if a != b)
            fail(
                f"log-store {label} replies differ from the uncrashed "
                f"control ({diff}/{len(control)} frames)"
            )

    def full_replication_ids(frames: list[bytes]) -> set:
        first = sorted(EXPECTED).index("full_replication") * SERVERS
        reply = decode_frame_body(frames[first])
        return {entry.entry_id for entry in reply["value"]}

    with ServeProcess([*SERVE_ARGS, "--store", "log", "--data-dir", data_dir]) as server:
        run(mutate(server.host, server.port, "w1"))
        control = run(capture(server.host, server.port))
        server.kill()
        # The kill cut the next write short: a fragment with no newline.
        newest = sorted(glob.glob(os.path.join(data_dir, "journal.*.log")))[-1]
        with open(newest, "a", encoding="utf-8") as handle:
            handle.write('[{"op":"add","k":"full_replication","s":0,"i":99,"e":["w9"')
        caps = restart(server, "restarted")
        same_frames(control, run(capture(server.host, server.port)), "recovery")
        run(mutate(server.host, server.port, "w2"))
        control = run(capture(server.host, server.port))
        server.kill()
        caps = restart(server, "twice restarted")
        recovered = run(capture(server.host, server.port))
        if "w2" not in full_replication_ids(recovered):
            fail("the mutation made after a torn-tail restart was lost")
        same_frames(control, recovered, "second recovery")
        server.stop()
    print(
        f"ok log-store recovery: SIGKILL + torn tail + restart, a mutation, "
        f"SIGKILL + restart replayed {caps.get('log_records')} journal records "
        f"and served {len(control)} byte-identical reply frames"
    )


def check_batch_through_reader(host: str, port: int) -> None:
    """A reader answers each read of a write-carrying batch after exactly
    the writes before it.

    Finds a reader worker by its ``workers.role`` capability, then sends
    it one binary batch ``[Add(e), Lookup(0), Delete(e), Lookup(0)]``
    per scheme: the reader forwards both writes to the writer in one
    bus frame and answers each lookup as the write before it lands.
    Every sub-reply must be ok; no lookup after the delete may hold
    ``e``, and it must equal a lookup sent after the batch; on
    ``full_replication``, where every server holds every entry, the
    lookup after the add must hold ``e``.
    """
    import socket
    import struct

    from repro.cluster.messages import AddRequest, DeleteRequest, LookupRequest
    from repro.core.entry import Entry
    from repro.net.codec import (
        CODEC_BINARY,
        CODEC_JSON,
        decode_frame_body,
        encode_envelope_as,
        hello_envelope,
    )

    def exchange(sock: socket.socket, envelope: dict, codec: str) -> dict:
        sock.sendall(encode_envelope_as(envelope, codec))
        (length,) = struct.unpack(">I", sock.recv(4, socket.MSG_WAITALL))
        return decode_frame_body(sock.recv(length, socket.MSG_WAITALL))

    def ids(reply: dict) -> set:
        return {entry.entry_id for entry in reply["value"]}

    entry = Entry("zz-smoke-batch")
    for _ in range(64):  # SO_REUSEPORT picks the worker; find a reader
        sock = socket.create_connection((host, port), timeout=10)
        info = exchange(sock, {"op": "info"}, CODEC_JSON)
        if info["value"]["capabilities"]["workers"]["role"] == "reader":
            break
        sock.close()
    else:
        fail("no connection reached a reader worker")
    with sock:
        if exchange(sock, hello_envelope((CODEC_BINARY,)), CODEC_JSON)["value"]["codec"] != (
            CODEC_BINARY
        ):
            fail("the reader did not negotiate the binary codec")
        for scheme in sorted(EXPECTED):
            requests = [
                {"op": "send", "id": n, "server": 0, "key": scheme, "message": message}
                for n, message in enumerate(
                    (AddRequest(entry), LookupRequest(0), DeleteRequest(entry), LookupRequest(0))
                )
            ]
            batch = {"op": "batch", "id": 1, "requests": requests}
            subs = exchange(sock, batch, CODEC_BINARY)["value"]
            if [sub.get("id") for sub in subs] != [0, 1, 2, 3] or not all(
                sub["ok"] for sub in subs
            ):
                fail(f"{scheme}: batch through the reader answered {subs}")
            after = exchange(sock, dict(requests[3], id=4), CODEC_BINARY)
            if entry.entry_id in ids(subs[3]) or ids(subs[3]) != ids(after):
                fail(f"{scheme}: the lookup after the delete does not hold the delete")
            if scheme == "full_replication" and entry.entry_id not in ids(subs[1]):
                fail(f"{scheme}: the lookup after the add does not hold the add")
    print("ok batch through a reader: each lookup saw exactly the writes before it")


def check_worker_fleet(deadline: float) -> dict:
    """The ``serve --workers 2`` leg: full exit-code contract + teardown.

    Asserts 0 (every scheme serves full answers through the fleet), 3
    (short-but-non-empty stays degraded), 4 (a lone non-home *fleet*
    answers empty), that mutating/reading across worker processes is
    transparent to ``repro call`` and inside one batch through a reader
    (:func:`check_batch_through_reader`), that one SIGTERM to the parent
    tears down every worker with a clean "[serve] stopped", and that
    the workers of a SIGKILLed parent exit on their own.
    """
    with ServeProcess([*SERVE_ARGS, "--workers", "2"]) as server:
        host, port = server.host, server.port
        pids = list(server.workers().values())
        if len(pids) != 2:
            fail(f"expected 2 worker pids in the manifest, got {pids}")
        print(f"fleet up at {host}:{port}, workers {pids}")
        for scheme in sorted(EXPECTED):
            check_scheme(
                scheme,
                run_call(scheme, host, port, deadline, codec="binary", batch=LOOKUPS),
                label=" [workers 2]",
            )
        check_degraded_exit(host, port, deadline)
        check_degraded_exit(host, port, deadline, codec="binary", batch=LOOKUPS)
        check_batch_through_reader(host, port)
        caps = collect_cache_stats(host, port)
        workers = caps.get("workers") or {}
        if workers.get("count") != 2:
            fail(f"capabilities do not report the 2-worker fleet: {workers}")
        stop_cleanly(server, "worker fleet")
        if left := wait_gone(pids, 0.5):
            fail(f"worker pids {left} survived the fleet teardown")
    print("ok workers 2: fleet served all schemes and tore down cleanly")

    # exit code 4 through a fleet: a lone non-home shard, 2 workers
    with ServeProcess([*SERVE_ARGS, "--workers", "2", "--shard", "0/3"]) as shard:
        shard_pids = list(shard.workers().values())
        summary = run_call(
            "fixed", shard.host, shard.port, deadline, verify=False, expect=4
        )
        for lookup in summary["lookups"]:
            if lookup["found"] != 0:
                fail(f"fleet failed-exit leg answered data: {lookup}")
        print("ok exit-code 4 [workers 2]: non-home fleet answers empty")
        # A SIGKILLed parent runs no teardown at all: the workers must
        # notice through the lifeline pipe.
        shard.kill()
        # Orphans: they exit on lifeline EOF and init reaps them, so
        # allow more than the supervised teardown's half second.
        if left := wait_gone(shard_pids, 10.0):
            fail(f"worker pids {left} survived their SIGKILLed supervisor")
        print("ok SIGKILL [workers 2]: workers exited")
    return caps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument(
        "--cache-stats",
        default=None,
        metavar="PATH",
        help="write the observed cache hit-rate counters here (JSON)",
    )
    args = parser.parse_args()
    deadline = time.monotonic() + args.timeout

    with ServeProcess(SERVE_ARGS) as server:
        host, port = server.host, server.port
        print(f"server up at {host}:{port}")
        for scheme in sorted(EXPECTED):
            check_scheme(scheme, run_call(scheme, host, port, deadline))
        # The same contract over the binary codec with pipelined
        # batches: identical summaries, identical exit codes.
        for scheme in sorted(EXPECTED):
            check_scheme(
                scheme,
                run_call(scheme, host, port, deadline, codec="binary", batch=LOOKUPS),
                label=f" [binary, batch {LOOKUPS}]",
            )
        check_degraded_exit(host, port, deadline)
        check_degraded_exit(host, port, deadline, codec="binary", batch=LOOKUPS)
        check_failed_exit(deadline)
        check_cached_frame_identity(host, port)
        single_caps = collect_cache_stats(host, port)
        stop_cleanly(server, "server")
    fleet_caps = check_worker_fleet(deadline)
    with tempfile.TemporaryDirectory() as tmpdir:
        check_log_store_recovery(tmpdir)
    if args.cache_stats:
        with open(args.cache_stats, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "single": single_caps.get("cache"),
                    "workers": fleet_caps.get("cache"),
                    "fleet": fleet_caps.get("workers"),
                },
                handle,
                indent=2,
                sort_keys=True,
            )
        print(f"cache stats written to {args.cache_stats}")
    print("net smoke passed: all schemes served real partial lookups")
    return 0


if __name__ == "__main__":
    sys.exit(main())
