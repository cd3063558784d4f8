"""One module per table/figure of the paper's evaluation.

Every experiment module exposes:

- a ``*Config`` dataclass with the paper's parameters as defaults
  (scaled-down run counts so the suite completes in minutes; pass the
  paper's counts for full-fidelity runs), and
- a ``run(config) -> ExperimentResult`` function that regenerates the
  table's rows / figure's series, plus helpers the benchmarks reuse.

The mapping to the paper (see DESIGN.md §3 for the full index):

=========================================  =====================
Module                                     Paper artifact
=========================================  =====================
:mod:`~repro.experiments.table1_storage`   Table 1
:mod:`~repro.experiments.fig4_lookup_cost` Figure 4
:mod:`~repro.experiments.fig6_coverage`    Figure 6
:mod:`~repro.experiments.fig7_fault_tolerance`  Figure 7
:mod:`~repro.experiments.fig9_unfairness`  Figure 9
:mod:`~repro.experiments.fig12_cushion`    Figure 12
:mod:`~repro.experiments.fig13_dynamic_unfairness`  Figure 13
:mod:`~repro.experiments.fig14_update_overhead`  Figure 14
:mod:`~repro.experiments.table2_summary`   Table 2
=========================================  =====================
"""

import importlib
from typing import Any

#: The package's exports, by the submodule that defines them.  They
#: load on first access, so importing a submodule (the command line
#: does, for ``repro serve`` too) does not load the experiment stack.
_EXPORTS = {
    "ExperimentResult": "runner",
    "average_runs": "runner",
    "seeded_runs": "runner",
    "render_table": "report",
    "render_series": "report",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
