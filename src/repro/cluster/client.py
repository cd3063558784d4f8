"""The client-side lookup driver over the sans-IO protocol core.

Every strategy's ``partial_lookup`` follows the same skeleton — contact
servers in some order, merge the distinct entries from each reply, stop
once the target is met — and differs only in the *order* of servers
contacted (uniformly random for most strategies, the deterministic
``s, s+y, s+2y, ...`` walk for Round-Robin).  That skeleton, including
the paper's failure handling and this reproduction's bounded retry
passes, lives in the transport-agnostic
:class:`~repro.protocol.lookup.LookupSession` state machine;
:class:`Client` is the *simulated-network driver* for it.  It resolves
the contact order (the only part that needs cluster topology), then
pumps the session: each ``SendRequest`` effect becomes a synchronous
:meth:`Network.send <repro.cluster.network.Network.send>`, each
``Sleep`` effect is accounted rather than enacted (asynchronous timing
lives at the workload level), and trace effects are forwarded to the
optional tracer.  The asyncio driver in :mod:`repro.net.client` pumps
the very same machine over real sockets.

The one public entry point is :meth:`Client.lookup`: a keyword-only
API built around the frozen :class:`LookupOptions` dataclass, whose
``order`` selects between the random walk (``"random"``) and the
Round-Robin stride walk (:class:`Stride`).

Under a fault plan the transport can also *lose* requests
(:data:`~repro.cluster.network.DROPPED`), which the paper's protocol
cannot distinguish from a failed server.  A :class:`RetryPolicy` makes
the client distinguish the two: after a pass that came up short it
re-contacts the servers that never answered — dropped contacts first,
since those servers are presumably alive — within a bounded backoff
budget measured in simulated time, instead of silently under-filling
the answer.  The result reports the retry count and an explicit
``degraded`` flag, so a short answer is always a *labelled* short
answer.

Observability: pass a :class:`~repro.obs.tracer.Tracer` (per call or
at construction) and every lookup emits one ``"lookup"`` span with a
``"contact"`` event per server tried (outcome: delivered / failed /
dropped) and a ``"retry"`` event per extra pass.  A
:class:`~repro.obs.metrics.MetricsRegistry` makes the client publish
per-lookup counters (``client.lookups``, ``client.retries``, ...).
Both are opt-in and cost nothing when absent — no RNG draws, no
behaviour change (the session emits trace effects only when asked).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple, Union

from repro.core.exceptions import InvalidParameterError
from repro.core.result import LookupResult
from repro.cluster.cluster import Cluster
from repro.cluster.network import DROPPED, is_undelivered
from repro.protocol.effects import (
    Complete,
    SendRequest,
    Sleep,
    SpanEnd,
    SpanEvent,
    SpanStart,
)
from repro.protocol.events import SLEPT, ContactFailed, Event, ReplyReceived
from repro.protocol.lookup import LookupSession, random_order, stride_order

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry behaviour for lookups under lossy transport.

    Parameters
    ----------
    max_attempts:
        Total passes over unanswered servers, including the first; 1
        reproduces the paper's single-pass client exactly.
    base_backoff:
        Simulated-time delay before the first retry pass.
    backoff_multiplier:
        Exponential growth factor per retry pass.
    backoff_budget:
        Total simulated time one lookup may spend backing off.  A
        retry whose delay would exceed the remaining budget is not
        attempted — the lookup returns degraded instead of retrying
        forever.  Measured in the same virtual-time units as the
        :class:`~repro.simulation.engine.SimulationEngine` clock; the
        synchronous transport accounts the delay (see
        ``LookupResult.backoff``) rather than advancing the engine,
        matching the codebase's convention that asynchronous timing
        lives at the workload level.  The asyncio driver enacts the
        same delays as real ``asyncio.sleep`` calls.
    jitter:
        Each delay is scaled by ``1 + jitter * u`` with ``u`` uniform
        in [0, 1) from the client RNG (the cluster RNG by default), so
        seeded runs replay identical retry schedules.  Must lie in
        [0, 1]: a negative jitter would silently *shrink* backoffs
        below the exponential schedule, and anything above 1 would
        more than double a delay.
    """

    max_attempts: int = 3
    base_backoff: float = 1.0
    backoff_multiplier: float = 2.0
    backoff_budget: float = 30.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff < 0 or self.backoff_budget < 0:
            raise InvalidParameterError("backoff times must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise InvalidParameterError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.jitter < 0.0:
            raise InvalidParameterError(
                f"jitter must not be negative (it would shrink backoffs), "
                f"got {self.jitter}"
            )
        if self.jitter > 1.0:
            raise InvalidParameterError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delay(self, retry_index: int, rng: random.Random) -> float:
        """The jittered backoff before retry pass ``retry_index`` (0-based)."""
        base = self.base_backoff * (self.backoff_multiplier ** retry_index)
        if self.jitter:
            base *= 1.0 + self.jitter * rng.random()
        return base


@dataclass(frozen=True)
class Stride:
    """Round-Robin contact order: random start, then ``+y`` steps mod n."""

    y: int

    def __post_init__(self) -> None:
        if self.y < 1:
            raise InvalidParameterError(f"stride must be >= 1, got {self.y}")

    def __str__(self) -> str:
        return f"stride({self.y})"


#: The ``order`` vocabulary: uniformly random, or a stride walk.
Order = Union[str, Stride]


@dataclass(frozen=True)
class LookupOptions:
    """Frozen per-lookup configuration for :meth:`Client.lookup`.

    Attributes
    ----------
    order:
        ``"random"`` (the default) or a :class:`Stride`.
    max_servers:
        Optional cap on operational servers contacted; used by
        strategies whose placement makes extra contacts useless
        (Fixed-x and full replication stop after one).
    per_server_target:
        How many entries to request from each server; defaults to the
        lookup target, the paper's per-server answer size.
    retry:
        Per-call :class:`RetryPolicy` override; ``None`` inherits the
        client's policy.  To force the paper's single-pass behaviour
        on a retrying client, pass ``RetryPolicy(max_attempts=1)``.
    tracer:
        Per-call :class:`~repro.obs.tracer.Tracer` override; ``None``
        inherits the client's tracer (usually none).
    """

    order: Order = "random"
    max_servers: Optional[int] = None
    per_server_target: Optional[int] = None
    retry: Optional[RetryPolicy] = None
    tracer: Optional["Tracer"] = None

    def __post_init__(self) -> None:
        if self.order != "random" and not isinstance(self.order, Stride):
            raise InvalidParameterError(
                f"order must be 'random' or a Stride, got {self.order!r}"
            )


class Client:
    """A lookup client bound to a cluster (the simulated-network driver).

    Parameters
    ----------
    cluster:
        The cluster to issue lookups against.
    rng:
        Private randomness for server selection; defaults to the
        cluster RNG so a seeded cluster stays fully deterministic.
    retry_policy:
        Optional :class:`RetryPolicy`.  With the default ``None`` the
        client is the paper's single-pass client, bit-for-bit.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; when set, every
        lookup emits a span (see the module docstring).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        set, the client publishes per-lookup counters into it.
    """

    def __init__(
        self,
        cluster: Cluster,
        rng: Optional[random.Random] = None,
        retry_policy: Optional[RetryPolicy] = None,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self._cluster = cluster
        self._rng = rng if rng is not None else cluster.rng
        self.retry_policy = retry_policy
        self.tracer = tracer
        self.metrics = metrics

    # -- server orderings -----------------------------------------------------

    def random_order(self) -> List[int]:
        """All server ids in a fresh uniformly random order."""
        return random_order(self._cluster.size, self._rng)

    def stride_order(self, start: int, stride: int) -> List[int]:
        """The Round-Robin-y contact sequence ``start, start+stride, ...``.

        See :func:`repro.protocol.lookup.stride_order`; the walk logic
        lives in the protocol package so both drivers share it.
        """
        return stride_order(self._cluster.size, start, stride, self._rng)

    def _resolve_order(self, order: Order) -> Tuple[List[int], str]:
        """Materialize an :data:`Order` into server ids plus a trace label.

        The RNG draws are exactly those of the legacy methods —
        ``"random"`` is one shuffle, a :class:`Stride` is one
        ``random_server_id`` draw then the stride walk — so seeded
        runs are unchanged by the unified API.
        """
        if isinstance(order, Stride):
            start = self._cluster.random_server_id()
            return self.stride_order(start, order.y), str(order)
        return self.random_order(), "random"

    # -- the lookup skeleton -----------------------------------------------------

    def lookup(
        self,
        key: str,
        target: int,
        *,
        order: Order = "random",
        max_servers: Optional[int] = None,
        per_server_target: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        tracer: Optional["Tracer"] = None,
        options: Optional[LookupOptions] = None,
    ) -> LookupResult:
        """Look up ``target`` distinct entries for ``key``.

        The single lookup entry point: ``order`` selects the contact
        sequence (``"random"`` or ``Stride(y)``), everything else is
        keyword-only and inherits the client's defaults.  Pass a
        pre-built frozen :class:`LookupOptions` as ``options`` to
        reuse one configuration across calls (the individual keywords
        must then be left at their defaults).
        """
        if options is None:
            options = LookupOptions(
                order=order,
                max_servers=max_servers,
                per_server_target=per_server_target,
                retry=retry,
                tracer=tracer,
            )
        elif (
            order != "random"
            or max_servers is not None
            or per_server_target is not None
            or retry is not None
            or tracer is not None
        ):
            raise InvalidParameterError(
                "pass either individual lookup keywords or options=, not both"
            )
        order_ids, order_label = self._resolve_order(options.order)
        return self.collect(
            key,
            target,
            order_ids,
            max_servers=options.max_servers,
            per_server_target=options.per_server_target,
            retry=options.retry,
            tracer=options.tracer,
            trace_label=order_label,
        )

    def collect(
        self,
        key: str,
        target: int,
        order: Iterable[int],
        max_servers: Optional[int] = None,
        per_server_target: Optional[int] = None,
        *,
        retry: Optional[RetryPolicy] = None,
        tracer: Optional["Tracer"] = None,
        trace_label: Optional[str] = None,
    ) -> LookupResult:
        """Contact servers in ``order`` until ``target`` entries merge.

        Builds a :class:`~repro.protocol.lookup.LookupSession` over
        ``order`` and pumps it through the simulated network; all
        merge/stop/retry decisions are the session's.  See
        :meth:`lookup` for the parameter semantics; ``order`` here is
        an explicit server-id sequence (failed servers are skipped
        without counting toward the lookup cost, per Section 4.2's
        no-failure cost model).

        When a :class:`RetryPolicy` is in effect and the first pass
        comes up short with unanswered servers remaining, the session
        makes further passes over those servers (dropped contacts
        first) until the target is met, the attempts run out, or the
        backoff budget is exhausted.
        """
        if tracer is None:
            tracer = self.tracer
        session = LookupSession(
            key,
            target,
            order,
            max_servers=max_servers,
            per_server_target=per_server_target,
            retry_policy=self.retry_policy if retry is None else retry,
            rng=self._rng,
            trace=tracer is not None,
            trace_label=trace_label,
        )
        result = self._pump(session, tracer)
        if self.metrics is not None:
            self._publish(result)
        return result

    def _pump(
        self, session: LookupSession, tracer: Optional["Tracer"]
    ) -> LookupResult:
        """Enact the session's effects against the simulated network.

        ``SendRequest`` becomes a synchronous ``network.send`` whose
        outcome (reply / failed / dropped) is fed straight back;
        ``Sleep`` is accounted by the session and needs no enactment
        here — the transport is synchronous, so the driver acknowledges
        it immediately.  Trace effects go to ``tracer``.
        """
        network = self._cluster.network
        span = None
        effects = session.start()
        while True:
            event: Optional[Event] = None
            for effect in effects:
                if isinstance(effect, SendRequest):
                    reply = network.send(
                        effect.server_id, effect.key, effect.request
                    )
                    if is_undelivered(reply):
                        event = ContactFailed(
                            effect.server_id, dropped=reply is DROPPED
                        )
                    else:
                        event = ReplyReceived(effect.server_id, reply)
                elif isinstance(effect, Sleep):
                    # Accounted, not enacted: the simulated transport
                    # is synchronous, so backoff only shows up in the
                    # result's ``backoff`` field.
                    event = SLEPT
                elif isinstance(effect, Complete):
                    return effect.result
                elif isinstance(effect, SpanStart):
                    span = tracer.begin_span(effect.name, **effect.fields)
                elif isinstance(effect, SpanEvent):
                    tracer.event(effect.name, parent=span, **effect.fields)
                elif isinstance(effect, SpanEnd):
                    tracer.end_span(span, **effect.fields)
            effects = session.on_event(event)

    def _publish(self, result: LookupResult) -> None:
        """Publish one lookup's outcome into the metrics registry."""
        metrics = self.metrics
        metrics.counter("client.lookups").inc()
        metrics.histogram("client.lookup_cost").observe(result.lookup_cost)
        if result.retries:
            metrics.counter("client.retries").inc(result.retries)
            metrics.histogram("client.backoff").observe(result.backoff)
        if result.degraded:
            metrics.counter("client.degraded").inc()
