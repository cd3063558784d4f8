"""What a durable write costs in process, by scheme and key size.

Boots one ``store="log"`` :class:`~repro.net.service.LookupService` per
(scheme, entry count) with auto-compaction off, then times ``--pairs``
add/delete pairs sent through ``handle_envelope``: the whole write, the
journal's sync point (``LookupService._journal_sync_point``) and, inside
it, ``AppendLogJournal.record_state``.  Prints one row per run, in µs
per write, and the journal bytes each write appended.

    PYTHONPATH=src python scripts/durable_write_cost.py
    PYTHONPATH=src python scripts/durable_write_cost.py --entries 2000 --pairs 100
"""

from __future__ import annotations

import argparse
import functools
import tempfile
import time

from repro.cluster.messages import AddRequest, DeleteRequest
from repro.core.entry import Entry
from repro.net.codec import encode_message
from repro.net.service import DEFAULT_SCHEMES, LookupService, ServiceConfig
from repro.storage.appendlog import AppendLogJournal

SCHEMES = ("round_robin", "random_server", "hash")


def _timed(owner, name, spent):
    real = getattr(owner, name)

    @functools.wraps(real)
    def timed(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return real(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter_ns() - start

    setattr(owner, name, timed)
    return real


def measure(scheme: str, entries: int, pairs: int, seed: int) -> dict:
    spent = {"_journal_sync_point": 0, "record_state": 0}
    with tempfile.TemporaryDirectory() as data_dir:
        service = LookupService(ServiceConfig(
            entry_count=entries, seed=seed, store="log", data_dir=data_dir,
            schemes={scheme: DEFAULT_SCHEMES[scheme]}, log_compact_records=0,
        ))
        bytes_before = service.journal.log_bytes
        size = service.cluster.size
        reals = [
            (LookupService, "_journal_sync_point",
             _timed(LookupService, "_journal_sync_point", spent)),
            (AppendLogJournal, "record_state",
             _timed(AppendLogJournal, "record_state", spent)),
        ]
        try:
            start = time.perf_counter_ns()
            for i in range(pairs):
                entry = Entry(f"x{i}")
                for message in (AddRequest(entry=entry), DeleteRequest(entry=entry)):
                    reply = service.handle_envelope({
                        "op": "send", "server": i % size, "key": scheme,
                        "message": encode_message(message),
                    })
                    assert reply["ok"], reply
            total = time.perf_counter_ns() - start
        finally:
            for owner, name, real in reals:
                setattr(owner, name, real)
        log_bytes = service.journal.log_bytes - bytes_before
        service.journal.close()
    writes = 2 * pairs
    return {
        "scheme": scheme,
        "entries": entries,
        "write_us": total / writes / 1e3,
        "sync_point_us": spent["_journal_sync_point"] / writes / 1e3,
        "record_state_us": spent["record_state"] / writes / 1e3,
        "bytes_per_write": log_bytes / writes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--schemes", nargs="+", default=list(SCHEMES))
    parser.add_argument("--entries", nargs="+", type=int, default=[2000, 20000])
    parser.add_argument("--pairs", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(f"{'scheme':<14}{'entries':>8}{'write µs':>10}{'sync µs':>9}"
          f"{'record_state µs':>17}{'B/write':>9}")
    for entries in args.entries:
        for scheme in args.schemes:
            row = measure(scheme, entries, args.pairs, args.seed)
            print(f"{scheme:<14}{entries:>8}{row['write_us']:>10.0f}"
                  f"{row['sync_point_us']:>9.0f}{row['record_state_us']:>17.0f}"
                  f"{row['bytes_per_write']:>9.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
