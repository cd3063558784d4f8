"""Typed results for the network client surface.

The one public answer shape for the network data path, shared by the
asyncio client, the shard router and the CLI:

- :class:`LookupResult` — one lookup, frozen: the entries and targets
  the core result carried, plus the network-only attribution (which
  shard/servers answered, whether failover happened, which wire codec
  served it) and an explicit ``status`` (``"ok"`` / ``"degraded"`` /
  ``"failed"`` — the same trichotomy as the ``repro call`` exit
  codes).
- :class:`LookupReport` — an ordered batch of results, as returned by
  ``lookup_many``; owns the batch-level verdicts (``all_success``,
  ``exit_code``) so scripts stop re-deriving them.

``as_row()`` gives the CLI's JSON row and ``core()`` the simulator's
core result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Tuple

from repro.core.entry import Entry
from repro.core.result import LookupResult as CoreLookupResult

#: Exit codes shared with ``repro call`` (see ``docs/protocols.md``).
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_FAILED = "failed"

_EXIT_BY_STATUS = {STATUS_OK: 0, STATUS_DEGRADED: 3, STATUS_FAILED: 4}


@dataclass(frozen=True)
class LookupResult:
    """One network lookup: the answer plus its attribution.

    Attributes
    ----------
    key:
        The scheme key the lookup ran under.
    entries, target, servers_contacted, failed_contacts, messages,
    retries, backoff:
        Exactly the simulator's :class:`repro.core.result.LookupResult`
        observations (see that class for the paper mapping).
    codec:
        Which wire codec carried the lookup (``"json"``/``"binary"``).
    home:
        The key's home shard group, primary first (empty for an
        unsharded client).
    routed:
        The shards the router actually admitted to the contact order.
    contacts:
        ``(shard, server_id)`` per answering contact, in contact
        order; unsharded lookups use the service's own shard name.
    """

    key: str
    entries: Tuple[Entry, ...]
    target: int
    servers_contacted: Tuple[int, ...] = ()
    failed_contacts: Tuple[int, ...] = ()
    messages: int = 0
    retries: int = 0
    backoff: float = 0.0
    codec: str = "json"
    home: Tuple[str, ...] = ()
    routed: Tuple[str, ...] = ()
    contacts: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def from_core(
        cls,
        key: str,
        core: CoreLookupResult,
        *,
        codec: str = "json",
        home: Tuple[str, ...] = (),
        routed: Tuple[str, ...] = (),
        contacts: Tuple[Tuple[str, int], ...] = (),
    ) -> "LookupResult":
        """Wrap a session's core result with its network attribution."""
        return cls(
            key=key,
            entries=core.entries,
            target=core.target,
            servers_contacted=core.servers_contacted,
            failed_contacts=core.failed_contacts,
            messages=core.messages,
            retries=core.retries,
            backoff=core.backoff,
            codec=codec,
            home=home,
            routed=routed,
            contacts=contacts,
        )

    # -- verdicts ------------------------------------------------------------

    @property
    def status(self) -> str:
        """``"ok"`` (met target), ``"failed"`` (empty answer, positive
        target), or ``"degraded"`` (short but non-empty)."""
        if self.target > 0 and not self.entries:
            return STATUS_FAILED
        if self.target > 0 and len(self.entries) < self.target:
            return STATUS_DEGRADED
        return STATUS_OK

    @property
    def success(self) -> bool:
        return len(self.entries) >= self.target

    @property
    def degraded(self) -> bool:
        return self.target > 0 and len(self.entries) < self.target

    @property
    def failed(self) -> bool:
        return self.status == STATUS_FAILED

    @property
    def exit_code(self) -> int:
        return _EXIT_BY_STATUS[self.status]

    @property
    def lookup_cost(self) -> int:
        """Operational servers contacted (Section 4.2)."""
        return len(self.servers_contacted)

    @property
    def failover(self) -> bool:
        """True when any answering contact landed off the primary shard."""
        primary = self.home[0] if self.home else None
        if primary is None:
            return False
        return any(shard != primary for shard, _ in self.contacts) or (
            self.routed[:1] != (primary,)
        )

    # -- container conveniences ----------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def as_row(self) -> Dict[str, Any]:
        """The CLI's JSON row for this lookup (stable, sorted entries)."""
        row: Dict[str, Any] = {
            "entries": sorted(e.entry_id for e in self.entries),
            "found": len(self.entries),
            "target": self.target,
            "status": self.status,
            "success": self.success,
            "degraded": self.degraded,
            "messages": self.messages,
            "retries": self.retries,
            "servers_contacted": list(self.servers_contacted),
            "codec": self.codec,
        }
        if self.home:
            row["home"] = list(self.home)
            row["routed"] = list(self.routed)
            row["contacts"] = [list(c) for c in self.contacts]
            row["failover"] = self.failover
        return row

    def core(self) -> CoreLookupResult:
        """This result as the simulator's core :class:`LookupResult`."""
        return CoreLookupResult(
            entries=self.entries,
            target=self.target,
            servers_contacted=self.servers_contacted,
            failed_contacts=self.failed_contacts,
            messages=self.messages,
            retries=self.retries,
            backoff=self.backoff,
        )


@dataclass(frozen=True)
class LookupReport:
    """An ordered batch of :class:`LookupResult`, from ``lookup_many``.

    Results keep request order regardless of the wire-level completion
    order (responses are correlated by request id).
    """

    results: Tuple[LookupResult, ...]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[LookupResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> LookupResult:
        return self.results[index]

    @property
    def all_success(self) -> bool:
        return all(r.success for r in self.results)

    @property
    def degraded_count(self) -> int:
        return sum(1 for r in self.results if r.degraded)

    @property
    def failed_count(self) -> int:
        return sum(1 for r in self.results if r.failed)

    @property
    def exit_code(self) -> int:
        """Worst outcome wins, exactly the ``repro call`` contract."""
        return max((r.exit_code for r in self.results), default=0)

    def rows(self) -> list:
        return [r.as_row() for r in self.results]


__all__ = [
    "STATUS_DEGRADED",
    "STATUS_FAILED",
    "STATUS_OK",
    "LookupReport",
    "LookupResult",
]
