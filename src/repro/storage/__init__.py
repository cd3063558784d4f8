"""Durable storage for the lookup service.

The stores themselves live in memory (:mod:`repro.core.storage`); this
package keeps them across a process crash.  Today that is the append
log (:mod:`repro.storage.appendlog`): every write's update record —
the per-server diff of store membership by dense index, the same dict
the worker fleet ships its readers — is journaled with the strategy
state and RNG position it advanced to, in one JSON line per write,
periodically folded into a snapshot, and replayed on cold start to
rebuild the stores bit-identically to a never-crashed service.
"""

from repro.storage.appendlog import (
    AppendLogJournal,
    RecoveredImage,
    RecoveryError,
)

__all__ = [
    "AppendLogJournal",
    "RecoveredImage",
    "RecoveryError",
]
