"""The bitset Monte-Carlo lookup kernel.

``retrieval_probabilities`` issues 10,000 ``partial_lookup`` calls per
placement instance — the hot loop of every fig9/fig13-class
experiment.  Each such lookup runs the full machinery: a
``LookupRequest`` dataclass per contact, network dispatch, logic
dispatch, an :class:`~repro.core.result.LookupResult`, and per-entry
string-id set operations.  None of that is needed to *count* answers:
this kernel re-implements the client skeleton over the dense interned
indices (see :mod:`repro.core.interning`), accumulating into a flat
count array, with membership tests as bitmask probes.

The kernel is only used when it can be **bit-identical** to the real
path, RNG draws and message counters included:

* ``random.Random.sample``'s draw sequence depends only on
  ``(len(population), k)`` and ``shuffle``'s only on the list length,
  so sampling index lists of the same lengths consumes exactly the
  RNG stream the Entry-object path would.
* Message accounting is replayed in bulk into ``MessageStats`` after
  the run — one processed ``LookupRequest`` per contacted operational
  server, one ``undelivered`` per skipped failed server — so stats
  consumers (fig4's cost model, stats dumps) see identical counters.

Anything the kernel cannot replay exactly — fault plans, tracers,
retry policies, metrics registries, message logs, custom client RNGs,
or a strategy whose ``partial_lookup`` is not the declared plain
skeleton (``lookup_profile() is None``) — makes :func:`plan_kernel`
return ``None`` and the caller falls back to the real path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.cluster.client import Client, Stride
from repro.cluster.messages import LookupRequest, MessageCategory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.strategies.base import PlacementStrategy


# ---------------------------------------------------------------------------
# Inlined RNG primitives.
#
# ``random.Random.sample``/``shuffle``/``randrange`` are pure Python;
# in the MC loop their call overhead (plus ``sample`` recomputing its
# algorithm-selection threshold on every call) rivals the actual
# drawing.  The helpers below replicate their *exact* ``getrandbits``
# draw sequences with the dispatch hoisted out.  They are only used
# after :func:`_inline_rng_supported` has verified, against the live
# stdlib, that the replication is draw-for-draw identical — if a
# future CPython changes the algorithms, the kernel silently drops
# back to calling the real methods (still correct, just slower).
# ---------------------------------------------------------------------------


def _use_pool_path(n: int, k: int) -> bool:
    """CPython ``sample``'s algorithm choice: pool copy vs rejection set."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return n <= setsize


def _sample_pool(population, k, getrandbits):
    """``sample`` via partial Fisher-Yates on a pool copy (n <= setsize)."""
    n = len(population)
    result = [None] * k
    pool = population[:]
    for i in range(k):
        bound = n - i
        bits = bound.bit_length()
        r = getrandbits(bits)
        while r >= bound:
            r = getrandbits(bits)
        result[i] = pool[r]
        pool[r] = pool[bound - 1]
    return result


def _sample_set(population, k, getrandbits):
    """``sample`` via rejection against a seen-set (n > setsize)."""
    n = len(population)
    bits = n.bit_length()
    result = [None] * k
    selected = set()
    add = selected.add
    for i in range(k):
        r = getrandbits(bits)
        while r >= n or r in selected:
            r = getrandbits(bits)
        add(r)
        result[i] = population[r]
    return result


def _fast_sample(population, k, getrandbits):
    if _use_pool_path(len(population), k):
        return _sample_pool(population, k, getrandbits)
    return _sample_set(population, k, getrandbits)


def _fast_shuffle(x, getrandbits):
    for i in range(len(x) - 1, 0, -1):
        bound = i + 1
        bits = bound.bit_length()
        r = getrandbits(bits)
        while r >= bound:
            r = getrandbits(bits)
        x[i], x[r] = x[r], x[i]


def _fast_randbelow(n, getrandbits):
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


_INLINE_RNG_OK: Optional[bool] = None


def _inline_rng_supported() -> bool:
    """One-time check: do the inlined primitives replay the stdlib exactly?"""
    global _INLINE_RNG_OK
    if _INLINE_RNG_OK is None:
        _INLINE_RNG_OK = _verify_inline_rng()
    return _INLINE_RNG_OK


def _verify_inline_rng() -> bool:
    shapes = [(5, 3), (7, 7), (10, 10), (20, 15), (50, 1), (64, 5), (100, 35), (200, 6), (500, 40)]
    for n, k in shapes:
        population = list(range(n))
        reference = random.Random(0xC0FFEE + n * 1000 + k)
        ours = random.Random(0xC0FFEE + n * 1000 + k)
        if reference.sample(population, k) != _fast_sample(
            population, k, ours.getrandbits
        ) or reference.getstate() != ours.getstate():
            return False
    for length in (0, 1, 2, 10, 37):
        reference = random.Random(0xF00D + length)
        ours = random.Random(0xF00D + length)
        a = list(range(length))
        b = list(range(length))
        reference.shuffle(a)
        _fast_shuffle(b, ours.getrandbits)
        if a != b or reference.getstate() != ours.getstate():
            return False
    for n in (1, 2, 9, 10, 100):
        reference = random.Random(n)
        ours = random.Random(n)
        if reference.randrange(n) != _fast_randbelow(n, ours.getrandbits) or (
            reference.getstate() != ours.getstate()
        ):
            return False
    return True


@dataclass
class KernelPlan:
    """Everything the kernel needs, pre-resolved from a strategy."""

    rng: random.Random
    #: Per-server dense-index lists (the live ``MemoryBackend`` internals;
    #: lookups never mutate stores, so sharing is safe).
    stores: List[List[int]]
    alive: List[bool]
    n: int
    #: None for random order, the stride for a Stride walk.
    stride: Optional[int]
    max_servers: Optional[int]
    #: Count-array size (the key's interned universe).
    index_space: int
    #: Where to replay message accounting.
    strategy: "PlacementStrategy"


def plan_kernel(strategy: "PlacementStrategy", target: int) -> Optional[KernelPlan]:
    """Build a :class:`KernelPlan`, or None if the fast path can't be exact."""
    from repro.strategies.base import StrategyLogic

    if target <= 0:
        return None
    profile = strategy.lookup_profile()
    if profile is None:
        return None
    client: Client = strategy.client
    cluster = strategy.cluster
    network = cluster.network
    if (
        client.retry_policy is not None
        or client.tracer is not None
        or client.metrics is not None
        or client._rng is not cluster.rng
    ):
        return None
    if (
        network.fault_injector is not None
        or network._tracer is not None
        or network._message_log is not None
    ):
        return None
    key = strategy.key
    for server in cluster.servers:
        logic = server.logic_for(key)
        # The per-server answer must be the shared StrategyLogic
        # sampling from the cluster RNG; a custom ``handle`` override
        # could do anything, so it disqualifies the kernel.
        if (
            not isinstance(logic, StrategyLogic)
            or type(logic).handle is not StrategyLogic.handle
            or logic.rng is not cluster.rng
        ):
            return None
    stride = profile.order.y if isinstance(profile.order, Stride) else None
    if stride is None and profile.order != "random":
        return None
    return KernelPlan(
        rng=cluster.rng,
        stores=[server.store(key)._indices for server in cluster.servers],
        alive=[server.alive for server in cluster.servers],
        n=cluster.size,
        stride=stride,
        max_servers=profile.max_servers,
        index_space=len(cluster.interner(key)),
        strategy=strategy,
    )


def run_retrieval_kernel(plan: KernelPlan, target: int, lookups: int) -> List[int]:
    """Run ``lookups`` Monte-Carlo partial lookups; return per-index counts.

    Bit-identical (RNG stream and message counters) to calling
    ``strategy.partial_lookup(target)`` ``lookups`` times and counting
    the returned entries.
    """
    rng = plan.rng
    stores = plan.stores
    alive = plan.alive
    n = plan.n
    max_servers = plan.max_servers
    counts = [0] * plan.index_space
    per_server = [0] * n
    undelivered = 0

    inline = type(rng) is random.Random and _inline_rng_supported()
    if inline:
        getrandbits = rng.getrandbits
        sample = lambda population, k: _fast_sample(population, k, getrandbits)
        shuffle = lambda x: _fast_shuffle(x, getrandbits)
        randrange = lambda bound: _fast_randbelow(bound, getrandbits)
        # The per-store (m, target) sample shape repeats every lookup;
        # pick CPython sample's pool-vs-set algorithm once per store.
        samplers = [
            (_sample_pool if _use_pool_path(len(store), target) else _sample_set)
            if len(store) > target
            else None
            for store in stores
        ]
    else:
        getrandbits = None
        sample = rng.sample
        shuffle = rng.shuffle
        randrange = rng.randrange
        samplers = [None] * n

    if plan.stride is not None:
        # Precompute the deterministic part of every stride walk: the
        # walk itself and the sorted leftovers (both depend only on
        # the start), leaving the RNG draws — start and leftover
        # shuffle — to the per-lookup loop, exactly as
        # Client.stride_order does.
        walks: List[List[int]] = []
        leftovers_by_start: List[List[int]] = []
        stride = plan.stride
        for start in range(n):
            walk: List[int] = []
            seen = set()
            current = start % n
            for _ in range(n):
                if current in seen:
                    break
                walk.append(current)
                seen.add(current)
                current = (current + stride) % n
            walks.append(walk)
            leftovers_by_start.append([i for i in range(n) if i not in seen])
        base_order = None
    else:
        base_order = list(range(n))

    for _ in range(lookups):
        if plan.stride is None:
            order = base_order[:]  # type: ignore[index]
            shuffle(order)
        else:
            start = randrange(n)
            leftovers = leftovers_by_start[start][:]
            shuffle(leftovers)
            order = walks[start] + leftovers
        merged_mask = 0
        merged_count = 0
        contacted = 0
        for sid in order:
            if merged_count >= target:
                break
            if max_servers is not None and contacted >= max_servers:
                break
            if not alive[sid]:
                undelivered += 1
                continue
            contacted += 1
            per_server[sid] += 1
            store = stores[sid]
            if target >= len(store):
                reply = store
            elif inline:
                reply = samplers[sid](store, target, getrandbits)
            else:
                reply = sample(store, target)
            if merged_mask:
                fresh = [i for i in reply if not (merged_mask >> i) & 1]
            else:
                fresh = reply
            if merged_count + len(fresh) > target:
                fresh = sample(fresh, target - merged_count)
            for i in fresh:
                counts[i] += 1
                merged_mask |= 1 << i
            merged_count += len(fresh)

    _replay_stats(plan, per_server, undelivered)
    return counts


def _replay_stats(plan: KernelPlan, per_server: List[int], undelivered: int) -> None:
    """Bulk-apply the message accounting the real path would have done."""
    stats = plan.strategy.cluster.network.stats
    total = sum(per_server)
    if total:
        stats.total += total
        stats.by_category[MessageCategory.LOOKUP] = (
            stats.by_category.get(MessageCategory.LOOKUP, 0) + total
        )
        type_name = LookupRequest.__name__
        stats.by_type[type_name] = stats.by_type.get(type_name, 0) + total
        for sid, count in enumerate(per_server):
            if count:
                stats.per_server[sid] = stats.per_server.get(sid, 0) + count
    stats.undelivered += undelivered
