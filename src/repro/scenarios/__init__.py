"""Declarative scenario subsystem.

One spec language (:mod:`repro.scenarios.spec`), one named catalogue
(:mod:`repro.scenarios.registry`), one grid language
(:mod:`repro.scenarios.sweep` — parametric sweeps minting spec lists),
one execution path (:mod:`repro.scenarios.runner`) — shared by
:mod:`repro.experiments`, the CLI (``repro scenario|sweep ...``), the
example scripts and the figure benchmarks.

Quick start::

    from repro import scenarios

    spec = scenarios.get("paper-bml").with_days(2)     # shrink the replay
    run = scenarios.run_scenario(spec)                 # -> ScenarioRun
    print(run.result.total_energy_kwh, run.qos().served_fraction)

    runs = scenarios.run_suite(scenarios.specs(), jobs=4)   # whole catalogue

    grid = scenarios.get_sweep("fig5-grid").expand()   # 24 minted specs
    runs = scenarios.run_suite(grid, jobs=4)           # traces ship once
"""

from .registry import (
    PAPER_SCENARIOS,
    by_tag,
    get,
    get_sweep,
    names,
    register,
    register_sweep,
    specs,
    sweep_names,
    sweeps,
)
from .runner import (
    FailedRun,
    RetryPolicy,
    ScenarioRun,
    SuiteExecutionError,
    SuiteInterrupted,
    chunk_specs,
    clear_caches,
    fanout_stats,
    run_scenario,
    run_suite,
)
from .sweep import LABELLED_AXES, SCALAR_AXES, SweepSpec
from .spec import (
    FIG5_DAYS_ENV,
    ScenarioError,
    ScenarioSpec,
    SchedulerSpec,
    WorkloadSpec,
)

__all__ = [
    "ScenarioSpec",
    "WorkloadSpec",
    "SchedulerSpec",
    "ScenarioError",
    "ScenarioRun",
    "FailedRun",
    "RetryPolicy",
    "SuiteExecutionError",
    "SuiteInterrupted",
    "FIG5_DAYS_ENV",
    "PAPER_SCENARIOS",
    "register",
    "get",
    "names",
    "specs",
    "by_tag",
    "run_scenario",
    "run_suite",
    "chunk_specs",
    "clear_caches",
    "fanout_stats",
    "SweepSpec",
    "SCALAR_AXES",
    "LABELLED_AXES",
    "register_sweep",
    "get_sweep",
    "sweep_names",
    "sweeps",
]
