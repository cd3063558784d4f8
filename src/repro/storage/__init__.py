"""Durable storage backends for the lookup service.

The in-memory default lives in :mod:`repro.core.storage`; this package
holds the backends that persist entries across a process crash.  Today
that is the append-log backend (:mod:`repro.storage.appendlog`): every
mutation is journaled to a log of one JSON line per write, periodically
folded into a snapshot, and replayed on cold start to rebuild the
stores bit-identically to a never-crashed service.
"""

from repro.storage.appendlog import (
    AppendLogJournal,
    LogBackend,
    RecoveredImage,
    RecoveryError,
)

__all__ = [
    "AppendLogJournal",
    "LogBackend",
    "RecoveredImage",
    "RecoveryError",
]
