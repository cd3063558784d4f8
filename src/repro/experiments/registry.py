"""Registry of all paper experiments, for the CLI and run-all driver.

Each entry binds an experiment id (the paper artifact it regenerates)
to its config class and run function, with enough metadata to build a
command line and a report automatically.  An entry names its module
rather than importing it: the module loads the first time its config
class or run function is used, so building the command line (and with
it ``repro serve``) imports no experiment.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass
from types import ModuleType
from typing import TYPE_CHECKING, Any, Callable, Dict, List

from repro.core.exceptions import InvalidParameterError

if TYPE_CHECKING:
    from repro.experiments.runner import ExperimentResult


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable paper experiment."""

    experiment_id: str
    paper_artifact: str
    description: str
    #: The experiment's module, under :mod:`repro.experiments`.
    module_name: str
    #: Its config dataclass, an attribute of that module.
    config_name: str
    #: Whether the first column is a numeric sweep (plottable).
    plottable: bool = True
    #: Plot failure-rate style data on a log axis.
    log_y: bool = False

    @property
    def module(self) -> ModuleType:
        return importlib.import_module(f"repro.experiments.{self.module_name}")

    @property
    def config_class(self) -> type:
        return getattr(self.module, self.config_name)

    @property
    def run(self) -> Callable[..., ExperimentResult]:
        return self.module.run


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in [
        ExperimentSpec(
            "table1",
            "Table 1",
            "storage cost: closed forms vs measured placements",
            "table1_storage",
            "Table1Config",
            plottable=False,
        ),
        ExperimentSpec(
            "fig4",
            "Figure 4",
            "client lookup cost vs target answer size at a fixed budget",
            "fig4_lookup_cost",
            "Fig4Config",
        ),
        ExperimentSpec(
            "fig6",
            "Figure 6",
            "maximum coverage vs total storage budget",
            "fig6_coverage",
            "Fig6Config",
        ),
        ExperimentSpec(
            "fig7",
            "Figure 7",
            "worst-case fault tolerance vs target answer size",
            "fig7_fault_tolerance",
            "Fig7Config",
        ),
        ExperimentSpec(
            "fig9",
            "Figure 9",
            "unfairness vs total storage (static placements)",
            "fig9_unfairness",
            "Fig9Config",
        ),
        ExperimentSpec(
            "fig12",
            "Figure 12",
            "Fixed-x lookup failure time vs cushion size",
            "fig12_cushion",
            "Fig12Config",
            log_y=True,
        ),
        ExperimentSpec(
            "fig13",
            "Figure 13",
            "RandomServer-x unfairness deterioration under churn",
            "fig13_dynamic_unfairness",
            "Fig13Config",
        ),
        ExperimentSpec(
            "fig14",
            "Figure 14",
            "total update overhead: Fixed-x vs Hash-y",
            "fig14_update_overhead",
            "Fig14Config",
        ),
        ExperimentSpec(
            "table2",
            "Table 2",
            "strategy/metric star summary, re-derived from measurements",
            "table2_summary",
            "Table2Config",
            plottable=False,
        ),
        ExperimentSpec(
            "hotspot",
            "Figure 1 / conclusion",
            "popular-key hot spot: partitioning vs partial lookup",
            "hotspot",
            "HotspotConfig",
            plottable=False,
        ),
        ExperimentSpec(
            "availability",
            "§4.4 companion",
            "lookup failure rate under random server crash/repair",
            "availability",
            "AvailabilityConfig",
        ),
        ExperimentSpec(
            "diverse",
            "§4.3 companion",
            "mixed client populations: small targets + crawlers",
            "diverse_clients",
            "DiverseClientsConfig",
            plottable=False,
        ),
        ExperimentSpec(
            "sensitivity",
            "robustness check",
            "do the §4.2/§4.4 orderings hold at other cluster sizes?",
            "sensitivity",
            "SensitivityConfig",
            plottable=False,
        ),
        ExperimentSpec(
            "chaos",
            "robustness gate",
            "soak all schemes under drop/duplicate/crash fault plans",
            "chaos_soak",
            "ChaosSoakConfig",
            plottable=False,
        ),
    ]
}


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment, with a helpful error for typos."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise InvalidParameterError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(sorted(EXPERIMENTS))}"
        ) from None


def list_experiments() -> List[ExperimentSpec]:
    """All experiments in paper order."""
    return list(EXPERIMENTS.values())


def build_config(spec: ExperimentSpec, overrides: Dict[str, Any]):
    """Instantiate the spec's config with field overrides.

    Override values are coerced to the dataclass field's type where
    the field annotation is a simple builtin (int/float), so CLI
    strings Just Work; tuple-of-int fields accept comma-separated
    strings.
    """
    fields = {f.name: f for f in dataclasses.fields(spec.config_class)}
    coerced: Dict[str, Any] = {}
    for name, raw in overrides.items():
        if name not in fields:
            raise InvalidParameterError(
                f"{spec.experiment_id} has no parameter {name!r}; "
                f"available: {', '.join(sorted(fields))}"
            )
        default = fields[name].default
        if isinstance(raw, str):
            try:
                if isinstance(default, bool):
                    coerced[name] = raw.lower() in ("1", "true", "yes")
                elif isinstance(default, int):
                    coerced[name] = int(raw)
                elif isinstance(default, float):
                    coerced[name] = float(raw)
                elif isinstance(default, tuple):
                    parts = [p.strip() for p in raw.split(",") if p.strip()]
                    coerced[name] = tuple(
                        int(part) if part.lstrip("+-").isdigit() else part
                        for part in parts
                    )
                else:
                    coerced[name] = raw
            except ValueError:
                kind = type(default).__name__
                raise InvalidParameterError(
                    f"{spec.experiment_id} parameter {name!r} expects "
                    f"{kind}, got {raw!r}"
                ) from None
        else:
            coerced[name] = raw
    return spec.config_class(**coerced)


def run_manifest(spec: ExperimentSpec, config: Any) -> "RunManifest":
    """The :class:`~repro.obs.manifest.RunManifest` for one (spec, config).

    One derivation point for the whole CLI: the manifest the ``--json``
    artifact carries and the manifest a ``--trace`` header embeds come
    from the same call, so their run ids always agree.
    """
    from repro.obs.manifest import RunManifest

    return RunManifest.for_config(spec.experiment_id, config)
