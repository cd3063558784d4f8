"""Chaos harness: drive placements through seeded fault schedules.

The paper's protocols are analysed under a fail-stop, perfect-network
model; this package is the adversarial complement.  A
:class:`ChaosHarness` runs a dynamic add/delete/lookup workload
against one strategy while a :class:`~repro.cluster.faults.FaultPlan`
drops, duplicates, and blacks out deliveries and crashes servers
mid-protocol, with periodic anti-entropy sweeps mending the placement
— then drains the faults, repairs, and checks the invariants every
scheme must uphold:

1. the placement verifies clean (zero structural violations);
2. no server store holds duplicate entries;
3. the §6.4 message books and the fault books both balance;
4. every post-quiescence lookup returns at least ``t`` entries or is
   *explicitly* degraded because fewer than ``t`` exist anywhere.

Everything is seeded; the same ``(seed, fault plan)`` pair produces an
identical :class:`ChaosReport`, so a chaos failure is a reproducible
test case, not an anecdote.

Beyond the simulated faults, :mod:`repro.chaos.shards` attacks the
real deployment: it SIGKILLs one shard of a live ``repro serve``
fleet and asserts lookups merely *degrade* (never error, hang, or
lie) until the shard rejoins.

Every real ``serve`` — those scenarios', the CI smokes', the fleet
tests' and the fleet benchmark's — is launched by
:class:`~repro.chaos.process.ServeProcess`, which waits for its ready
file and its exit together, reads its worker manifest, and kills,
stops or restarts it.  It lives here, not in :mod:`repro.net`, so
nothing ``serve`` itself imports grows.
"""

from repro.chaos.harness import ChaosHarness, ChaosReport, default_fault_plan
from repro.chaos.process import ServeError, ServeProcess, wait_gone
from repro.chaos.shards import ShardFleet, ScenarioError, run_kill_shard_scenario

__all__ = [
    "ChaosHarness",
    "ChaosReport",
    "ScenarioError",
    "ServeError",
    "ServeProcess",
    "ShardFleet",
    "default_fault_plan",
    "run_kill_shard_scenario",
    "wait_gone",
]
