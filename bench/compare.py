#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A B [--pairs]``.

``A`` is the parent, ``B`` the change.  Each is a ``run.py --json``
file, a JSON list of such files' contents, or a directory of them.
One row is printed per workload x end-to-end metric with the verdict:

- ``regressed``  — B's median is worse than A's by more than the bound
  ``BENCHMARK.json`` fixes for the metric;
- ``unresolved`` — not regressed, but a set's own quartile spread is
  wider than the bound and B's runs do not all beat A's, so "no
  change" cannot be told from "changed within the noise";
- ``gain``       — only with ``--pairs`` (run *i* of A was taken next to
  run *i* of B): B wins at least nine tenths of the pairs, ties
  counting for neither, and the medians differ by more than the
  distance between A's quartiles;
- ``unchanged``  — none of the above.

When every run used one seed, the exact counters and ``inputs_sha256``
must be identical across all runs; a difference is reported and fails.
Exit code 1 on any regression or determinism failure, else 0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Sequence, Tuple

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402 - sibling module, importable once the path is set

#: Values that must repeat exactly between runs of one seed.
EXACT = (
    "inputs_sha256",
    "data_dir_sha256",
    "ops_attempted",
    "codec.request_bytes_per_op",
    "codec.reply_bytes_per_op",
    "lookup_session.contacts_per_lookup",
    "cache.invalidations_per_write",
    "appendlog.compactions",
)


def load_runs(path: str) -> List[Dict[str, Any]]:
    """Every run (one ``run.py --json`` document) found at ``path``."""
    target = pathlib.Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    runs: List[Dict[str, Any]] = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            doc = json.load(handle)
        runs.extend(doc if isinstance(doc, list) else [doc])
    if not runs:
        raise SystemExit(f"error: no runs found at {path}")
    return runs


def column(runs: Sequence[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    """``metric`` of ``workload`` from each run that measured it."""
    values = []
    for run in runs:
        for report in run["reports"]:
            if report["workload"] == workload and metric in report.get("end_to_end", {}):
                values.append(float(report["end_to_end"][metric]))
    return values


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is, as a share of ``parent`` (negative = better)."""
    if not parent:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float, pairs: bool
) -> Tuple[str, Dict[str, float]]:
    med_a, spread_a = stats.quartile_spread(a)
    med_b, spread_b = stats.quartile_spread(b)
    worse = worse_by(med_a, med_b, better)
    wins = losses = 0
    for x, y in zip(a, b):
        step = worse_by(x, y, better)
        wins += step < 0
        losses += step > 0
    facts = {
        "median_a": med_a, "median_b": med_b, "worse_by": worse,
        "spread_a": spread_a, "spread_b": spread_b,
        "wins": float(wins), "pairs": float(min(len(a), len(b))),
    }
    if worse > bound:
        return "regressed", facts
    all_better = all(worse_by(x, y, better) < 0 for x in a for y in b)
    if (
        pairs
        and wins >= 0.9 * min(len(a), len(b))
        and abs(med_b - med_a) > spread_a * abs(med_a)
        and worse < 0
    ):
        return "gain", facts
    if max(spread_a, spread_b) > bound and not all_better:
        return "unresolved", facts
    return "unchanged", facts


def exact_mismatches(runs: Sequence[Dict[str, Any]]) -> List[str]:
    """Exact counters that differ between runs sharing a workload and seed."""
    seen: Dict[Tuple[str, Any, str], Any] = {}
    problems = []
    for run in runs:
        for report in run["reports"]:
            merged = dict(report.get("live", {}))
            merged.update({k: report[k] for k in EXACT if k in report})
            for key in EXACT:
                if key not in merged:
                    continue
                slot = (report["workload"], report["seed"], key)
                if slot in seen and seen[slot] != merged[key]:
                    problems.append(
                        f"{slot[0]} seed {slot[1]}: {key} read {seen[slot]!r} "
                        f"and {merged[key]!r}"
                    )
                seen.setdefault(slot, merged[key])
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", action="store_true",
                        help="run i of A was paired with run i of B: apply the gain rule")
    args = parser.parse_args(argv)
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    a_runs, b_runs = load_runs(args.parent), load_runs(args.change)

    print(f"{'workload':<18}{'metric':<22}{'A median':>12}{'B median':>12}"
          f"{'worse by':>10}{'bound':>7}{'IQR A':>8}{'IQR B':>8}{'wins':>7}  verdict")
    failed = False
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            a = column(a_runs, workload, metric["name"])
            b = column(b_runs, workload, metric["name"])
            if not a or not b:
                continue
            word, facts = verdict(a, b, metric["better"], metric["bound"], args.pairs)
            failed |= word == "regressed"
            print(
                f"{workload:<18}{metric['name']:<22}{facts['median_a']:>12.4f}"
                f"{facts['median_b']:>12.4f}{facts['worse_by']:>+10.2%}"
                f"{metric['bound']:>7.0%}{facts['spread_a']:>8.2%}{facts['spread_b']:>8.2%}"
                f"{facts['wins']:>4.0f}/{facts['pairs']:<2.0f}  {word}"
            )
    problems = exact_mismatches(list(a_runs) + list(b_runs))
    attempted = sum(r.get("ops_attempted", 0) for run in a_runs + b_runs for r in run["reports"])
    failed_ops = sum(r.get("ops_failed", 0) for run in a_runs + b_runs for r in run["reports"])
    print(f"\nruns: A {len(a_runs)}, B {len(b_runs)}; ops attempted {attempted}, "
          f"failed {failed_ops}")
    if problems:
        print("exact counters differ between runs of one seed:")
        for problem in problems:
            print(f"  {problem}")
    else:
        print("exact counters and inputs_sha256: identical across runs of each seed")
    return 1 if failed or problems or failed_ops else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
