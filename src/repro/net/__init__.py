"""The asyncio network service: real sockets over the sans-IO core.

This package is the second driver for the protocol state machines in
:mod:`repro.protocol` (the first is the simulated
:class:`~repro.cluster.network.Network`).  It has three parts:

- :mod:`repro.net.codec` — the length-prefixed wire format for the
  typed messages in :mod:`repro.cluster.messages`: JSON (the
  mandatory fallback every peer speaks) plus a compact binary codec
  negotiated per connection via the ``hello`` op.
- :mod:`repro.net.results` — the frozen typed answers
  (:class:`~repro.net.results.LookupResult`,
  :class:`~repro.net.results.LookupReport`) returned by the client
  and router lookup surfaces.
- :mod:`repro.net.service` — an asyncio server hosting a cluster's
  :class:`~repro.protocol.server.ServerProtocol` instances behind one
  listening socket.
- :mod:`repro.net.cache` — the hot-key reply cache: an LRU of fully
  packed lookup replies for the RNG-free lookup shapes, invalidated
  before every mutation (cache-on and cache-off services are
  byte-identical on the wire).
- :mod:`repro.net.workers` — the multi-core worker fleet behind
  ``serve --workers N``: SO_REUSEPORT acceptors, a single writer
  applying every mutation, and an epoch-stamped delta log fanning
  state out to the readers.
- :mod:`repro.net.client` — an async client that drives
  :class:`~repro.protocol.lookup.LookupSession` with real request
  timeouts and real ``asyncio.sleep`` backoffs.
- :mod:`repro.net.sharding` — the pure key→shard placement core
  (multi-probe consistent hashing, partial backup replicas).
- :mod:`repro.net.membership` — the asyncio pump driving the sans-IO
  :class:`~repro.protocol.membership.MembershipProtocol` failure
  detector between shards.
- :mod:`repro.net.router` — :class:`~repro.net.router.ShardRouter`,
  the sharded-fleet client: routes keys to home shards, fails over to
  backups, returns *degraded* (never wrong, never hung) results while
  a shard is down.

The ``repro serve`` / ``repro call`` CLI subcommands (see
:mod:`repro.net.cli`) wrap the service and client for interactive use
and the CI smoke job.  Everything here uses only the standard
library — no third-party networking dependencies.
"""

from repro.net.codec import (
    CODEC_BINARY,
    CODEC_JSON,
    SUPPORTED_CODECS,
    FrameError,
    WireError,
    decode_envelope,
    decode_message,
    decode_value,
    encode_envelope,
    encode_message,
    encode_value,
    negotiate_codec,
    read_frame,
    write_frame,
)
from repro.net.cache import ReplyCache
from repro.net.client import AsyncLookupClient, ServiceError, ServiceInfo
from repro.net.results import LookupReport, LookupResult
from repro.net.sharding import ShardMap, partial_replica
from repro.net.service import LookupService, ServiceConfig, shard_names
from repro.net.membership import MembershipPump
from repro.net.router import ShardRouter
from repro.net.workers import run_worker_fleet

__all__ = [
    "AsyncLookupClient",
    "CODEC_BINARY",
    "CODEC_JSON",
    "FrameError",
    "LookupReport",
    "LookupResult",
    "LookupService",
    "MembershipPump",
    "ReplyCache",
    "ServiceConfig",
    "ServiceError",
    "ServiceInfo",
    "ShardMap",
    "ShardRouter",
    "SUPPORTED_CODECS",
    "WireError",
    "negotiate_codec",
    "partial_replica",
    "shard_names",
    "decode_envelope",
    "decode_message",
    "decode_value",
    "encode_envelope",
    "encode_message",
    "encode_value",
    "read_frame",
    "run_worker_fleet",
    "write_frame",
]
