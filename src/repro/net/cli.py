"""CLI faces for the network service: ``repro serve`` and ``repro call``.

``serve`` runs a :class:`~repro.net.service.LookupService` in the
foreground until interrupted; ``call`` issues partial lookups through
an :class:`~repro.net.client.AsyncLookupClient` (one service) or,
with ``--shards``, a :class:`~repro.net.router.ShardRouter` (a fleet)
— one lookup loop, either client.  Both are registered as subcommands
of the main ``repro`` parser (see :mod:`repro.experiments.cli`); the
handlers here follow the same convention — take the parsed namespace,
return an exit code.

The ``--ready-file`` flag makes ``serve`` write ``host port\\n`` once
the socket is bound.  With ``--port 0`` (an ephemeral port) this is
the only way a supervisor can learn the address; the CI smoke job and
``scripts/net_smoke.py`` rely on it.

Sharded deployments add ``serve --shard i/N --peers s0=host:port,...``
(one process per shard, heartbeating its peers) and ``call
--shards s0=host:port,...`` (membership-aware failover; with
``--batch N`` a round of N lookups costs one batch frame per shard).

Exit codes — ``call`` distinguishes outcomes so CI scripts can assert
on them without parsing stdout:

- 0: every lookup returned its full target.
- 3: at least one lookup came back short but non-empty (the
  partial-failure regime the paper is about).
- 4: at least one lookup returned nothing at all despite a positive
  target.
- 1: the service could not be reached; 2 is reserved for usage /
  :class:`~repro.core.exceptions.ReproError` failures in ``main``.

Worst outcome wins; the rule itself is
:attr:`repro.net.results.LookupReport.exit_code`.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import random
import signal
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.client import RetryPolicy
from repro.core.exceptions import InvalidParameterError
from repro.net.cache import DEFAULT_CAPACITY as DEFAULT_CACHE_CAPACITY
from repro.net.client import AsyncLookupClient
from repro.net.membership import MembershipPump
from repro.net.results import LookupReport, LookupResult
from repro.net.router import ShardRouter
from repro.net.service import DEFAULT_SCHEMES, LookupService, ServiceConfig
from repro.net.workers import run_worker_fleet
from repro.protocol.membership import MembershipConfig


def _parse_shard(spec: str) -> Tuple[int, int]:
    """Parse ``--shard i/N`` into ``(index, count)``."""
    try:
        index_text, count_text = spec.split("/", 1)
        return int(index_text), int(count_text)
    except ValueError:
        raise InvalidParameterError(
            f"--shard wants i/N (e.g. 0/3), got {spec!r}"
        ) from None


def _parse_endpoints(spec: str) -> Dict[str, Tuple[str, int]]:
    """Parse ``name=host:port,name=host:port,...``."""
    endpoints: Dict[str, Tuple[str, int]] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            name, address = item.split("=", 1)
            host, port_text = address.rsplit(":", 1)
            endpoints[name.strip()] = (host.strip(), int(port_text))
        except ValueError:
            raise InvalidParameterError(
                f"endpoint wants name=host:port, got {item!r}"
            ) from None
    if not endpoints:
        raise InvalidParameterError(f"no endpoints in {spec!r}")
    return endpoints


def add_serve_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the asyncio lookup service on a socket",
        description=(
            "Host all five paper schemes behind one listening socket. "
            "Runs until interrupted (SIGINT/SIGTERM)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7421, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--servers", type=int, default=16, help="cluster size n"
    )
    parser.add_argument(
        "--entries", type=int, default=40, help="entries placed per scheme"
    )
    parser.add_argument("--seed", type=int, default=0, help="cluster RNG seed")
    parser.add_argument(
        "--ready-file",
        default=None,
        help="write 'host port' here once the socket is bound",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fork N worker processes accepting on one port "
            "(SO_REUSEPORT; worker 0 applies all mutations)"
        ),
    )
    cache = parser.add_argument_group("reply cache")
    cache.add_argument(
        "--cache-size",
        type=int,
        default=DEFAULT_CACHE_CAPACITY,
        metavar="N",
        help="hot-key reply cache capacity per process (0 disables)",
    )
    storage = parser.add_argument_group("storage")
    storage.add_argument(
        "--store",
        choices=("memory", "log"),
        default="memory",
        help=(
            "storage backend: 'memory' (default) or 'log' (append-log "
            "journal; crash recovery from --data-dir)"
        ),
    )
    storage.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="journal/snapshot directory (required with --store log)",
    )
    storage.add_argument(
        "--log-compact-records",
        type=int,
        default=4096,
        metavar="N",
        help="auto-compact the journal every N records (0 = never)",
    )
    shard = parser.add_argument_group("sharding")
    shard.add_argument(
        "--shard",
        default="0/1",
        metavar="I/N",
        help="this process's shard index out of N (default 0/1: unsharded)",
    )
    shard.add_argument(
        "--peers",
        default=None,
        metavar="NAME=HOST:PORT,...",
        help="the other shards' addresses (enables the membership plane)",
    )
    shard.add_argument(
        "--replicas", type=int, default=2, help="home-group size per key"
    )
    shard.add_argument(
        "--backup-fraction",
        type=float,
        default=0.25,
        help="fraction of a key's entries each backup shard holds",
    )
    shard.add_argument(
        "--probes", type=int, default=21, help="multi-probe hash probe count"
    )
    shard.add_argument(
        "--incarnation",
        type=int,
        default=None,
        help="boot incarnation (default: wall-clock seconds)",
    )
    timing = parser.add_argument_group("failure detection")
    timing.add_argument(
        "--heartbeat-interval", type=float, default=0.5, help="seconds between beats"
    )
    timing.add_argument(
        "--suspect-after", type=float, default=2.0, help="silence before suspect"
    )
    timing.add_argument(
        "--dead-after", type=float, default=5.0, help="silence before dead"
    )
    timing.add_argument(
        "--quarantine", type=float, default=3.0, help="rejoin probation seconds"
    )
    parser.set_defaults(handler=cmd_serve)


def add_call_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "call",
        help="issue partial lookups against a running service",
        description=(
            "Run partial lookups under one scheme against a repro serve "
            "instance (--host/--port) or, routed by home shard, against "
            "a shard fleet (--shards), printing a JSON summary.  Exit "
            "code: 0 all full, 3 some degraded, 4 some empty, 1 unreachable."
        ),
    )
    parser.add_argument(
        "scheme",
        choices=sorted(DEFAULT_SCHEMES),
        help="which hosted scheme to look up under",
    )
    parser.add_argument("--host", default="127.0.0.1", help="service address")
    parser.add_argument("--port", type=int, default=7421, help="service port")
    parser.add_argument(
        "--target", type=int, default=10, help="entries to retrieve per lookup"
    )
    parser.add_argument(
        "--count", type=int, default=1, help="number of lookups to run"
    )
    parser.add_argument(
        "--codec",
        choices=("json", "binary"),
        default="json",
        help=(
            "wire codec: json (legacy, default) or binary "
            "(negotiated per connection, JSON fallback)"
        ),
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=1,
        metavar="N",
        help=(
            "pipeline lookups in windows of N: one batch frame per "
            "connection per round (1 = sequential plain sends)"
        ),
    )
    parser.add_argument("--seed", type=int, default=None, help="client RNG seed")
    parser.add_argument(
        "--timeout", type=float, default=5.0, help="per-request reply timeout (s)"
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="max lookup attempts (1 = the paper's single pass)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="also fetch the service's coverage/storage invariants",
    )
    parser.add_argument(
        "--shards",
        default=None,
        metavar="NAME=HOST:PORT,...",
        help="route through the shard fleet instead of one service",
    )
    parser.add_argument(
        "--replicas", type=int, default=2, help="home-group size per key (fleet mode)"
    )
    parser.add_argument(
        "--probes", type=int, default=21, help="multi-probe count (fleet mode)"
    )
    parser.set_defaults(handler=cmd_call)


def _config_from_args(args: argparse.Namespace) -> ServiceConfig:
    shard_index, shard_count = _parse_shard(args.shard)
    return ServiceConfig(
        server_count=args.servers,
        entry_count=args.entries,
        seed=args.seed,
        shard_index=shard_index,
        shard_count=shard_count,
        replicas=args.replicas,
        backup_fraction=args.backup_fraction,
        probes=args.probes,
        cache_size=args.cache_size,
        store=args.store,
        data_dir=args.data_dir,
        log_compact_records=args.log_compact_records,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the service until SIGINT/SIGTERM."""
    if args.workers < 1:
        raise InvalidParameterError(f"--workers must be >= 1, got {args.workers}")
    if args.workers > 1:
        if args.peers is not None:
            # Readers would heartbeat through stale per-process views;
            # the membership plane stays a one-process-per-shard affair.
            raise InvalidParameterError(
                "--workers does not combine with --peers; run one worker "
                "fleet per shard without the membership plane"
            )
        return run_worker_fleet(
            _config_from_args(args),
            host=args.host,
            port=args.port,
            workers=args.workers,
            ready_file=args.ready_file,
        )
    return asyncio.run(_serve_async(args))


async def _serve_async(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    shard_count = config.shard_count
    service = LookupService(config)
    pump: Optional[MembershipPump] = None
    if args.peers is not None:
        if shard_count < 2:
            raise InvalidParameterError("--peers requires --shard i/N with N > 1")
        peers = _parse_endpoints(args.peers)
        peers.pop(service.shard_name, None)
        incarnation = (
            args.incarnation if args.incarnation is not None else int(time.time())
        )
        pump = MembershipPump(
            service.shard_name,
            peers,
            config=MembershipConfig(
                heartbeat_interval=args.heartbeat_interval,
                suspect_after=args.suspect_after,
                dead_after=args.dead_after,
                quarantine=args.quarantine,
            ),
            incarnation=incarnation,
            rng=random.Random(args.seed),
        )
        service.membership = pump
    host, port = await service.start(host=args.host, port=args.port)
    if pump is not None:
        pump.start()
    if args.ready_file:
        with open(args.ready_file, "w", encoding="utf-8") as handle:
            handle.write(f"{host} {port}\n")
    shard_note = (
        f" as shard {service.shard_name}/{shard_count}" if shard_count > 1 else ""
    )
    print(
        f"[serve] {len(service.strategies)} schemes on {config.server_count} "
        f"servers, listening on {host}:{port}{shard_note}",
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signame in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signame, stop.set)
    try:
        await stop.wait()
    finally:
        if pump is not None:
            await pump.stop()
        await service.stop()
        print("[serve] stopped", flush=True)
    return 0


def cmd_call(args: argparse.Namespace) -> int:
    try:
        return asyncio.run(_call_async(args))
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach service: {exc}", file=sys.stderr)
        return 1


async def _call_async(args: argparse.Namespace) -> int:
    """One lookup loop over either client: a service's, or the fleet's router."""
    policy: Optional[RetryPolicy] = None
    if args.retries > 1:
        policy = RetryPolicy(max_attempts=args.retries)
    options: Dict[str, Any] = {
        "rng": random.Random(args.seed) if args.seed is not None else None,
        "timeout": args.timeout,
        "retry_policy": policy,
        "codec": args.codec,
    }
    batch = max(1, args.batch)
    fleet = args.shards is not None
    summary: Dict[str, Any] = {"scheme": args.scheme}
    if fleet:
        client = ShardRouter(
            _parse_endpoints(args.shards),
            replicas=args.replicas,
            probes=args.probes,
            **options,
        )
        summary["shards"] = client.map.shards
    else:
        client = AsyncLookupClient(args.host, args.port, **options)
    try:
        if not fleet:
            info = await client.info()
            summary["service"] = {"servers": info.servers, "entries": info.entries}
        results: List[LookupResult] = []
        remaining = args.count
        while remaining > 0:
            window = min(batch, remaining)
            remaining -= window
            if window == 1:
                results.append(await client.lookup(args.scheme, args.target))
            elif fleet:
                results.extend(
                    await client.lookup_many([(args.scheme, args.target)] * window)
                )
            else:
                results.extend(
                    await client.lookup_many(args.scheme, [args.target] * window)
                )
        report = LookupReport(results=tuple(results))
        if fleet:
            summary["membership"] = await client.membership_view(refresh=True)
        summary["lookups"] = report.rows()
        summary["all_success"] = report.all_success
        summary["exit_code"] = report.exit_code
        if args.verify:
            summary["verify"] = await client.verify(args.scheme)
    finally:
        await client.close()
    print(json.dumps(summary, indent=2, sort_keys=True))
    return report.exit_code


__all__ = [
    "add_call_parser",
    "add_serve_parser",
    "cmd_call",
    "cmd_serve",
]
