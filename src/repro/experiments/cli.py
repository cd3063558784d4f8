"""Command-line driver for the paper's experiments.

Usage (installed as ``python -m repro``)::

    python -m repro list
    python -m repro run fig4
    python -m repro run fig4 --set runs=50 --set lookups_per_run=1000
    python -m repro run fig12 --plot
    python -m repro run table1 --json results/table1.json
    python -m repro run-all --out results/

Every command prints the same rows/series the paper reports; ``--plot``
adds an ASCII rendition of the figure, ``--json`` writes the result
(rows + config) for downstream tooling.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.exceptions import ReproError
from repro.experiments.profiles import PROFILES, profile_overrides
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentSpec,
    build_config,
    get_spec,
    list_experiments,
    run_manifest,
)

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentResult

# The parser is built for every command, ``serve`` and ``call``
# included, so this module imports no experiment, renderer or process
# pool at the top: each command imports what it runs.


def _parse_overrides(pairs: List[str]) -> Dict[str, str]:
    overrides: Dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"--set expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        overrides[name.strip()] = value.strip()
    return overrides


def result_to_json(result: ExperimentResult, config: Any) -> Dict[str, Any]:
    """A JSON-serializable record of one experiment run."""
    return {
        "name": result.name,
        "headers": result.headers,
        "rows": result.rows,
        "meta": result.meta,
        "config": dataclasses.asdict(config),
    }


def _write_json(payload: Dict[str, Any], path: pathlib.Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table

    rows = [
        {
            "id": spec.experiment_id,
            "paper": spec.paper_artifact,
            "description": spec.description,
            "config": spec.config_class.__name__,
        }
        for spec in list_experiments()
    ]
    print(render_table(["id", "paper", "description", "config"], rows,
                       title="Available experiments"))
    return 0


def _run_one(
    spec: ExperimentSpec,
    overrides: Dict[str, str],
    plot: bool,
    json_path: Optional[pathlib.Path],
    csv_path: Optional[pathlib.Path] = None,
    quiet: bool = False,
    jobs: Optional[int] = None,
    profile: Optional[str] = None,
) -> ExperimentResult:
    from repro.experiments.parallel import resolve_jobs
    from repro.experiments.plotting import plot_experiment
    from repro.experiments.report import render_experiment

    # A profile seeds the overrides; explicit --set values win.
    merged: Dict[str, Any] = {}
    if profile is not None:
        merged.update(profile_overrides(spec.config_class, profile))
    merged.update(overrides)
    config = build_config(spec, merged)
    resolved_jobs = resolve_jobs(jobs)
    started = time.perf_counter()
    result = spec.run(config, jobs=resolved_jobs)
    elapsed = time.perf_counter() - started
    if not quiet:
        print(render_experiment(result))
        print(f"[{spec.experiment_id}: {elapsed:.1f}s]")
        if plot and spec.plottable:
            print()
            print(plot_experiment(result, log_y=spec.log_y))
    # Attach the manifest only after rendering: the printed output of
    # every experiment stays byte-identical to pre-manifest runs while
    # the JSON artifact gains the provenance record.  The execution
    # record (jobs/wall-clock) is the one deliberately non-reproducible
    # manifest field; results do not depend on it.
    result.attach_manifest(
        run_manifest(spec, config).with_execution(
            jobs=resolved_jobs,
            workers=resolved_jobs,
            mode="process" if resolved_jobs > 1 else "serial",
            wall_clock_seconds=elapsed,
        )
    )
    if json_path is not None:
        _write_json(result_to_json(result, config), json_path)
        if not quiet:
            print(f"[wrote {json_path}]")
    if csv_path is not None:
        from repro.io.results import result_to_csv

        result_to_csv(result, csv_path)
        if not quiet:
            print(f"[wrote {csv_path}]")
    return result


def _apply_estimator(
    overrides: Dict[str, str], estimator: Optional[str]
) -> Dict[str, str]:
    """Fold ``--estimator`` into the overrides; explicit --set wins."""
    if estimator is not None:
        overrides.setdefault("estimator", estimator)
    return overrides


def _cmd_run(args: argparse.Namespace) -> int:
    spec = get_spec(args.experiment)
    json_path = pathlib.Path(args.json) if args.json else None
    csv_path = pathlib.Path(args.csv) if args.csv else None
    _run_one(
        spec,
        _apply_estimator(_parse_overrides(args.set), args.estimator),
        args.plot,
        json_path,
        csv_path,
        jobs=args.jobs,
        profile=args.profile,
    )
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    out_dir = pathlib.Path(args.out) if args.out else None
    overrides = _apply_estimator(_parse_overrides(args.set), args.estimator)
    for spec in list_experiments():
        print(f"=== {spec.experiment_id} ({spec.paper_artifact}) ===")
        json_path = (
            out_dir / f"{spec.experiment_id}.json" if out_dir else None
        )
        # Shared overrides apply only where the config has the field.
        valid = {
            f.name for f in dataclasses.fields(spec.config_class)
        }
        applicable = {k: v for k, v in overrides.items() if k in valid}
        _run_one(
            spec,
            applicable,
            args.plot,
            json_path,
            jobs=args.jobs,
            profile=args.profile,
        )
        print()
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.analysis.planner import (
        DeploymentSpec,
        cheapest_for_updates,
        plan_rows,
    )
    from repro.core import columns
    from repro.experiments.report import render_table

    spec = DeploymentSpec(
        entry_count=args.entries,
        server_count=args.servers,
        storage_budget=args.budget,
        target_answer_size=args.target,
        updates_per_lookup=args.update_rate,
    )
    rows = plan_rows(spec)
    print(render_table(
        list(columns.PLAN_COLUMNS),
        rows,
        title=(
            f"Analytic plan: h={spec.entry_count}, n={spec.server_count}, "
            f"budget={spec.storage_budget}, t={spec.target_answer_size}"
        ),
    ))
    print(f"cheapest for updates (§6.4): {cheapest_for_updates(spec)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report_doc import write_report

    path = write_report(
        pathlib.Path(args.out),
        scale=args.scale,
        include_plots=args.plot,
        experiment_ids=args.only or None,
    )
    print(f"wrote {path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_experiment
    from repro.experiments.validate import ValidationConfig, all_passed, run

    result = run(ValidationConfig())
    print(render_experiment(result))
    if all_passed(result):
        print("all checks passed")
        return 0
    print("VALIDATION FAILED", file=sys.stderr)
    return 1


def _cmd_chaos_soak(args: argparse.Namespace) -> int:
    from repro.experiments.chaos_soak import ChaosSoakConfig, run
    from repro.experiments.parallel import resolve_jobs
    from repro.experiments.report import render_experiment

    config = ChaosSoakConfig(seed=args.seed, events=args.events)
    manifest = run_manifest(get_spec("chaos"), config)
    tracer = None
    resolved_jobs = resolve_jobs(args.jobs)
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer(run_id=manifest.run_id)
        if resolved_jobs > 1:
            print("[--trace forces serial execution; ignoring --jobs]")
            resolved_jobs = 1
    started = time.perf_counter()
    result = run(config, tracer=tracer, jobs=resolved_jobs)
    elapsed = time.perf_counter() - started
    print(render_experiment(result))
    manifest = manifest.with_execution(
        jobs=resolved_jobs,
        workers=resolved_jobs,
        mode="process" if resolved_jobs > 1 else "serial",
        wall_clock_seconds=elapsed,
    )
    result.attach_manifest(manifest)
    if tracer is not None:
        from repro.obs import write_trace

        path = write_trace(tracer, pathlib.Path(args.trace), manifest=manifest)
        print(f"[wrote {path}: {len(tracer)} trace records]")
    if args.json:
        _write_json(result_to_json(result, config), pathlib.Path(args.json))
        print(f"[wrote {args.json}]")
    if result.meta.get("passed"):
        print("all invariants held")
        return 0
    for label, reasons in result.meta.get("failures", {}).items():
        for reason in reasons:
            print(f"CHAOS FAIL [{label}]: {reason}", file=sys.stderr)
    return 1


def _cmd_stats(args: argparse.Namespace) -> int:
    """Seeded lookups against one scheme, metrics registry dumped flat."""
    from repro.cluster.cluster import Cluster
    from repro.cluster.client import Client, RetryPolicy
    from repro.cluster.faults import FaultPlan
    from repro.core.entry import make_entries
    from repro.experiments.report import render_table
    from repro.obs import MetricsRegistry, format_counters, write_counters
    from repro.strategies.registry import create_strategy

    params = {
        name: int(value) for name, value in _parse_overrides(args.param).items()
    }
    cluster = Cluster(args.servers, seed=args.seed)
    strategy = create_strategy(args.strategy, cluster, **params)
    strategy.place(make_entries(args.entries))
    metrics = MetricsRegistry()
    if args.drop_p > 0.0:
        cluster.network.install_fault_plan(
            FaultPlan(seed=args.seed, drop_probability=args.drop_p)
        )
        strategy.client = Client(
            cluster, retry_policy=RetryPolicy(), metrics=metrics
        )
    else:
        strategy.client = Client(cluster, metrics=metrics)
    for _ in range(args.lookups):
        strategy.partial_lookup(args.target)
    cluster.network.stats.publish(metrics)
    injector = cluster.network.fault_injector
    if injector is not None:
        injector.stats.publish(metrics)
    snapshot = metrics.snapshot()
    print(render_table(
        ["metric", "value"],
        metrics.as_rows(),
        title=(
            f"{args.strategy} on n={args.servers}, h={args.entries}: "
            f"{args.lookups} lookups at t={args.target}, seed {args.seed}"
        ),
    ))
    if args.out:
        path = write_counters(snapshot, pathlib.Path(args.out))
        print(f"[wrote {path}: {len(snapshot)} counters]")
    return 0


def _cmd_trace_lookup(args: argparse.Namespace) -> int:
    """A few traced lookups against one scheme; spans printed, JSONL out."""
    from repro.cluster.cluster import Cluster
    from repro.cluster.client import Client
    from repro.core.entry import make_entries
    from repro.experiments.report import render_table
    from repro.obs import Tracer, write_trace
    from repro.strategies.registry import create_strategy

    params = {
        name: int(value) for name, value in _parse_overrides(args.param).items()
    }
    cluster = Cluster(args.servers, seed=args.seed)
    strategy = create_strategy(args.strategy, cluster, **params)
    strategy.place(make_entries(args.entries))
    tracer = Tracer(run_id=f"trace-lookup-{args.strategy}-seed{args.seed}")
    cluster.install_tracer(tracer)
    for server_id in args.fail:
        cluster.fail(server_id)
    strategy.client = Client(cluster, tracer=tracer)
    for _ in range(args.lookups):
        strategy.partial_lookup(args.target)
    cluster.uninstall_tracer()
    rows = []
    for span in tracer.spans("lookup"):
        contacts = [
            r for r in tracer.children_of(span) if r.name == "contact"
        ]
        rows.append(
            {
                "span": span.span_id,
                "order": span.fields.get("order", "?"),
                "contacts": ",".join(
                    f"{c.fields['server']}"
                    + ("" if c.fields["outcome"] == "delivered" else "!")
                    for c in contacts
                ),
                "entries": span.fields.get("entries", 0),
                "messages": span.fields.get("messages", 0),
                "success": span.fields.get("success", False),
            }
        )
    print(render_table(
        ["span", "order", "contacts", "entries", "messages", "success"],
        rows,
        title=(
            f"{args.lookups} traced lookups: {args.strategy} on "
            f"n={args.servers}, t={args.target}, seed {args.seed} "
            "(contacts: server id, '!' = no answer)"
        ),
    ))
    if args.out:
        path = write_trace(tracer, pathlib.Path(args.out))
        print(f"[wrote {path}: {len(tracer)} trace records]")
    return 0


def _cmd_trace_generate(args: argparse.Namespace) -> int:
    import random

    from repro.io.traces import save_trace
    from repro.workload.generator import SteadyStateWorkload
    from repro.workload.lifetimes import ExponentialLifetime, ZipfLifetime

    mean_lifetime = args.arrival_gap * args.entries
    lifetime = (
        ZipfLifetime(mean_lifetime)
        if args.lifetime == "zipf"
        else ExponentialLifetime(mean_lifetime)
    )
    workload = SteadyStateWorkload(
        args.entries,
        arrival_gap=args.arrival_gap,
        lifetime=lifetime,
        rng=random.Random(args.seed),
    )
    trace = workload.generate(args.updates)
    path = save_trace(trace, pathlib.Path(args.out))
    print(
        f"wrote {path}: {len(trace.initial_entries)} initial entries, "
        f"{trace.update_count} updates ({args.lifetime} lifetimes, "
        f"seed {args.seed})"
    )
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from repro.cluster.cluster import Cluster
    from repro.experiments.report import render_table
    from repro.io.traces import load_trace
    from repro.simulation.replay import TraceReplayer
    from repro.strategies.registry import create_strategy

    trace = load_trace(pathlib.Path(args.trace))
    params = {
        name: int(value) for name, value in _parse_overrides(args.param).items()
    }
    cluster = Cluster(args.servers, seed=args.seed)
    strategy = create_strategy(args.strategy, cluster, **params)
    strategy.place(trace.initial_entries)
    cluster.reset_stats()
    replayer = TraceReplayer(strategy, monitor_target=args.monitor_target)
    stats = replayer.replay(trace.events)
    rows = [
        {"metric": "adds", "value": stats.adds},
        {"metric": "deletes", "value": stats.deletes},
        {"metric": "lookups", "value": stats.lookups},
        {"metric": "lookup_failure_rate", "value": round(stats.lookup_failure_rate, 4)},
        {"metric": "update_messages", "value": stats.update_messages},
        {"metric": "final_storage", "value": strategy.storage_cost()},
        {"metric": "final_coverage", "value": strategy.coverage()},
    ]
    if args.monitor_target is not None:
        rows.append(
            {
                "metric": f"pct_time_below_t={args.monitor_target}",
                "value": round(100 * stats.failure_time_fraction, 4),
            }
        )
    print(render_table(["metric", "value"], rows,
                       title=f"Replay of {args.trace} on {args.strategy}"))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile one experiment run; print the hottest functions."""
    import cProfile
    import io
    import pstats

    spec = get_spec(args.experiment)
    config = build_config(spec, _parse_overrides(args.set))
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    result = spec.run(config, jobs=1)
    profiler.disable()
    elapsed = time.perf_counter() - started
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(
        f"[{spec.experiment_id}: {elapsed:.1f}s serial, "
        f"{len(result.rows)} rows; top {args.top} by {args.sort}]"
    )
    print(stream.getvalue(), end="")
    if args.out:
        stats.dump_stats(args.out)
        print(f"[wrote {args.out}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the tables and figures of 'Partial "
        "Lookup Services' (ICDCS 2003).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list experiments")
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a config field (repeatable); e.g. --set runs=50",
    )
    run_parser.add_argument(
        "--plot", action="store_true", help="also render an ASCII figure"
    )
    run_parser.add_argument(
        "--json", metavar="PATH", help="write rows + config as JSON"
    )
    run_parser.add_argument(
        "--csv", metavar="PATH", help="write rows as CSV"
    )
    run_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for seeded runs (default: $REPRO_JOBS or 1); "
        "results are bit-identical for any value",
    )
    run_parser.add_argument(
        "--profile", choices=sorted(PROFILES), default=None,
        help="config scale profile: 'paper' restores the paper's run "
        "counts, 'smoke' shrinks everything for CI; --set still wins",
    )
    run_parser.add_argument(
        "--estimator", choices=("mc", "exact", "auto"), default=None,
        help="probability/cost estimator where the experiment supports "
        "one: 'mc' is the paper's Monte-Carlo method, 'exact' the "
        "closed form (deterministic schemes only), 'auto' exact where "
        "available with MC fallback",
    )
    run_parser.set_defaults(handler=_cmd_run)

    all_parser = subparsers.add_parser(
        "run-all", help="run every experiment in paper order"
    )
    all_parser.add_argument(
        "--set", action="append", default=[], metavar="NAME=VALUE",
        help="override a config field wherever it exists (repeatable)",
    )
    all_parser.add_argument("--plot", action="store_true")
    all_parser.add_argument(
        "--out", metavar="DIR", help="write one JSON per experiment"
    )
    all_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for seeded runs (default: $REPRO_JOBS or 1)",
    )
    all_parser.add_argument(
        "--profile", choices=sorted(PROFILES), default=None,
        help="config scale profile applied to every experiment",
    )
    all_parser.add_argument(
        "--estimator", choices=("mc", "exact", "auto"), default=None,
        help="estimator override, applied wherever the config has the "
        "field ('auto' is the safe fast choice; 'exact' raises on "
        "stochastic schemes)",
    )
    all_parser.set_defaults(handler=_cmd_run_all)

    prof_parser = subparsers.add_parser(
        "profile",
        help="cProfile one experiment (serial) and print the hottest "
        "functions",
    )
    prof_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    prof_parser.add_argument(
        "--set", action="append", default=[], metavar="NAME=VALUE",
        help="override a config field (repeatable)",
    )
    prof_parser.add_argument(
        "--top", type=int, default=25, metavar="N",
        help="rows of profile output to print (default 25)",
    )
    prof_parser.add_argument(
        "--sort", choices=("cumulative", "tottime", "calls"),
        default="cumulative", help="pstats sort key (default cumulative)",
    )
    prof_parser.add_argument(
        "--out", metavar="PATH",
        help="also dump the raw pstats profile for snakeviz and friends",
    )
    prof_parser.set_defaults(handler=_cmd_profile)

    validate_parser = subparsers.add_parser(
        "validate",
        help="check measured behaviour against every closed form",
    )
    validate_parser.set_defaults(handler=_cmd_validate)

    report_parser = subparsers.add_parser(
        "report", help="write a markdown report of all experiments"
    )
    report_parser.add_argument("--out", required=True, metavar="PATH")
    report_parser.add_argument(
        "--scale", choices=("quick", "default", "thorough"), default="quick"
    )
    report_parser.add_argument("--plot", action="store_true")
    report_parser.add_argument(
        "--only", action="append", metavar="ID",
        help="restrict to these experiment ids (repeatable)",
    )
    report_parser.set_defaults(handler=_cmd_report)

    plan_parser = subparsers.add_parser(
        "plan", help="analytic capacity plan for a deployment"
    )
    plan_parser.add_argument("--entries", type=int, required=True)
    plan_parser.add_argument("--servers", type=int, required=True)
    plan_parser.add_argument("--budget", type=int, required=True)
    plan_parser.add_argument("--target", type=int, required=True)
    plan_parser.add_argument("--update-rate", type=float, default=0.0)
    plan_parser.set_defaults(handler=_cmd_plan)

    chaos_parser = subparsers.add_parser(
        "chaos-soak",
        help="soak every scheme under a seeded fault plan; exit 1 on "
        "any invariant violation",
    )
    chaos_parser.add_argument("--seed", type=int, default=0)
    chaos_parser.add_argument(
        "--events", type=int, default=2000,
        help="update events in the soak trace",
    )
    chaos_parser.add_argument(
        "--json", metavar="PATH", help="write rows + config as JSON"
    )
    chaos_parser.add_argument(
        "--trace", metavar="PATH",
        help="record a structured JSONL trace of the soak (lookup "
        "spans, update deliveries, repair sweeps) to PATH",
    )
    chaos_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="soak schemes on worker processes (ignored with --trace)",
    )
    chaos_parser.set_defaults(handler=_cmd_chaos_soak)

    stats_parser = subparsers.add_parser(
        "stats",
        help="run a seeded workload against one scheme and dump the "
        "metrics registry as flat counters",
    )
    stats_parser.add_argument(
        "--strategy", default="round_robin",
        help="strategy name from the registry",
    )
    stats_parser.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="strategy constructor parameter (repeatable), e.g. y=2",
    )
    stats_parser.add_argument("--servers", type=int, default=10)
    stats_parser.add_argument("--entries", type=int, default=40)
    stats_parser.add_argument("--lookups", type=int, default=100)
    stats_parser.add_argument("--target", type=int, default=5)
    stats_parser.add_argument("--seed", type=int, default=0)
    stats_parser.add_argument(
        "--drop-p", type=float, default=0.0,
        help="install a fault plan with this drop probability",
    )
    stats_parser.add_argument(
        "--out", metavar="PATH",
        help="also write the counters dump ('name value' lines) to PATH",
    )
    stats_parser.set_defaults(handler=_cmd_stats)

    trace_parser = subparsers.add_parser(
        "trace", help="generate / replay workload trace files"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    generate_parser = trace_sub.add_parser(
        "generate", help="write a steady-state update trace (JSONL)"
    )
    generate_parser.add_argument("--entries", type=int, default=100)
    generate_parser.add_argument("--updates", type=int, default=10000)
    generate_parser.add_argument("--arrival-gap", type=float, default=10.0)
    generate_parser.add_argument(
        "--lifetime", choices=("exp", "zipf"), default="exp"
    )
    generate_parser.add_argument("--seed", type=int, default=0)
    generate_parser.add_argument("--out", required=True, metavar="PATH")
    generate_parser.set_defaults(handler=_cmd_trace_generate)

    replay_parser = trace_sub.add_parser(
        "replay", help="replay a trace file against a strategy"
    )
    replay_parser.add_argument("trace", metavar="PATH")
    replay_parser.add_argument(
        "--strategy", default="round_robin",
        help="strategy name from the registry",
    )
    replay_parser.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="strategy constructor parameter (repeatable), e.g. y=2",
    )
    replay_parser.add_argument("--servers", type=int, default=10)
    replay_parser.add_argument("--seed", type=int, default=0)
    replay_parser.add_argument(
        "--monitor-target", type=int, default=None,
        help="track %% of time coverage falls below this target",
    )
    replay_parser.set_defaults(handler=_cmd_trace_replay)

    lookup_parser = trace_sub.add_parser(
        "lookup",
        help="run traced lookups against one scheme and print the spans",
    )
    lookup_parser.add_argument(
        "--strategy", default="round_robin",
        help="strategy name from the registry",
    )
    lookup_parser.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="strategy constructor parameter (repeatable), e.g. y=2",
    )
    lookup_parser.add_argument("--servers", type=int, default=10)
    lookup_parser.add_argument("--entries", type=int, default=40)
    lookup_parser.add_argument("--lookups", type=int, default=5)
    lookup_parser.add_argument("--target", type=int, default=5)
    lookup_parser.add_argument("--seed", type=int, default=0)
    lookup_parser.add_argument(
        "--fail", action="append", default=[], type=int, metavar="SERVER",
        help="fail this server before the lookups (repeatable)",
    )
    lookup_parser.add_argument(
        "--out", metavar="PATH", help="also write the JSONL trace to PATH"
    )
    lookup_parser.set_defaults(handler=_cmd_trace_lookup)

    # The network service face lives in repro.net; it registers the
    # ``serve`` and ``call`` subcommands on this parser.
    from repro.net.cli import add_call_parser, add_serve_parser

    add_serve_parser(subparsers)
    add_call_parser(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via -m repro
    sys.exit(main())
