"""Packaged experiments: one callable per paper table/figure.

Benchmarks, examples and the CLI all call these entry points so every
reproduction runs exactly one code path.  See DESIGN.md's per-experiment
index (E1..E6, A1..A4) for the mapping to the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union


from .analysis.figures import (
    FigureSeries,
    fig1_series,
    fig2_series,
    fig3_series,
    fig4_series,
    fig5_series,
)
from .analysis.metrics import OverheadStats, overhead_stats
from .core.bml import BMLInfrastructure, design
from .core.prediction import Predictor
from .core.profiles import (
    ArchitectureProfile,
    illustrative_profiles,
    table_i_profiles,
)
from .profiling.harness import MachineReport, ProfilingCampaign
from .profiling.hardware import paper_hardware
from .results import RunStore, ScenarioResult, SuiteReport
from .scenarios import registry as scenario_registry
from .scenarios.runner import ScenarioRun, run_scenario
from .sim.results import SimulationResult
from .workload.trace import LoadTrace

__all__ = [
    "run_table1",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "Fig5Outcome",
    "run_fig5",
    "SCENARIO_GLOBAL",
    "SCENARIO_PER_DAY",
    "SCENARIO_BML",
    "SCENARIO_LOWER_BOUND",
]

# The published scenario names; the registry's paper-* specs are the
# single source of truth, re-exported here for backward compatibility.
(
    SCENARIO_GLOBAL,
    SCENARIO_PER_DAY,
    SCENARIO_BML,
    SCENARIO_LOWER_BOUND,
) = tuple(
    scenario_registry.get(name).scenario_label
    for name in scenario_registry.PAPER_SCENARIOS
)


def run_table1(
    campaign: Optional[ProfilingCampaign] = None,
) -> List[MachineReport]:
    """E1 — regenerate Table I by profiling the modelled testbed."""
    campaign = campaign or ProfilingCampaign()
    return campaign.run(paper_hardware())


def run_fig1() -> FigureSeries:
    """E2 — illustrative architectures A-D and the Step 2 filter."""
    profiles = illustrative_profiles()
    infra = design(profiles)
    removed = dict(infra.removed)
    return fig1_series(profiles, kept=infra.names, removed=removed)


def run_fig2() -> FigureSeries:
    """E3 — crossing points between architectures (Steps 3-4)."""
    return fig2_series(design(illustrative_profiles()))


def run_fig3(
    profiles: Optional[Sequence[ArchitectureProfile]] = None,
) -> FigureSeries:
    """E4 — measured power/performance profiles of the five machines."""
    return fig3_series(list(profiles) if profiles else table_i_profiles())


def run_fig4(method: str = "greedy") -> FigureSeries:
    """E5 — ideal BML combination power vs Big-only vs BML linear."""
    return fig4_series(design(table_i_profiles()), method=method)


@dataclass
class Fig5Outcome:
    """All four scenarios of Fig. 5 plus the headline statistics."""

    trace: LoadTrace
    infra: BMLInfrastructure
    upper_global: SimulationResult
    upper_per_day: SimulationResult
    bml: SimulationResult
    lower_bound: SimulationResult
    overhead: OverheadStats
    #: The four scenario runs in presentation order (carry spec + trace
    #: metadata so the outcome can distil unified result records).
    runs: List[ScenarioRun] = field(default_factory=list)

    @property
    def results(self) -> List[SimulationResult]:
        return [self.upper_global, self.upper_per_day, self.bml, self.lower_bound]

    def records(self) -> List[ScenarioResult]:
        """The four scenarios as unified result records."""
        return [run.to_record() for run in self.runs]

    def report(
        self, baseline: str = "paper-upper-global"
    ) -> SuiteReport:
        """Suite-level aggregation over the four Fig. 5 scenarios.

        The default baseline is the classical over-provisioned data
        center, so ``report().savings()`` states the paper's pitch (how
        much BML saves vs always-on Bigs) directly from the records.
        """
        return SuiteReport.from_runs(self.runs, baseline=baseline)

    def save(self, store: Union[RunStore, str, Path]) -> List[str]:
        """Persist all four scenario runs; returns their run ids."""
        if not isinstance(store, RunStore):
            store = RunStore(store)
        return [store.save(run) for run in self.runs]

    def figure(self) -> FigureSeries:
        """The Fig. 5 series with overhead annotations."""
        return fig5_series(self.results, reference=self.lower_bound)

    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per scenario for report tables."""
        rows = []
        for r in self.results:
            qos = r.qos(self.trace)
            rows.append(
                {
                    "scenario": r.scenario,
                    "energy_kwh": round(r.total_energy_kwh, 2),
                    "mean_power_w": round(r.mean_power, 1),
                    "reconfigs": r.n_reconfigurations,
                    "switch_kwh": round(r.switch_energy / 3.6e6, 3),
                    "unserved_s": qos.violation_seconds,
                    "served_frac": round(qos.served_fraction, 6),
                }
            )
        return rows


def run_fig5(
    trace: Optional[LoadTrace] = None,
    infra: Optional[BMLInfrastructure] = None,
    predictor: Optional[Predictor] = None,
    n_days: int = 87,
    seed: int = 1998,
    method: str = "greedy",
    policy: str = "bml",
    engine: Optional[str] = None,
) -> Fig5Outcome:
    """E6 — the World Cup replay: 4 scenarios, per-day energy, overheads.

    Defaults reproduce the paper's setup: 87 days (6..92), look-ahead-max
    prediction over 378 s, greedy Step 5 combinations.  Pass a shorter
    synthetic trace (``n_days``) for quick runs.  ``policy`` selects the
    BML scenario's scheduler: ``"bml"`` (the paper) or
    ``"transition-aware"`` (the Sec. VI future-work policy); ``engine``
    overrides the BML scenario's replay engine (a
    :data:`repro.scenarios.spec.ENGINES` name, e.g. ``"event-twophase"``
    — the baselines always use the fast plan executor, and an event
    engine takes the ``"bml"`` policy only).

    Thin wrapper over the scenario subsystem: the four specs come from
    :mod:`repro.scenarios.registry` (``paper-upper-global``,
    ``paper-upper-perday``, ``paper-bml``, ``paper-lower-bound``) with
    this function's arguments layered on, and every replay goes through
    :func:`repro.scenarios.runner.run_scenario`.
    """
    if policy not in ("bml", "transition-aware"):
        raise ValueError(f"unknown policy {policy!r}")
    specs = {name: scenario_registry.get(name) for name in
             scenario_registry.PAPER_SCENARIOS}
    bml_spec = specs["paper-bml"]
    # One shared trace/infra for the four scenarios, exactly like the
    # original hand-wired comparison (n_days/seed only matter when no
    # explicit trace is given).  n_days is an explicit argument, so it
    # bypasses the REPRO_FIG5_DAYS override reserved for spec defaults.
    if trace is None:
        workload = replace(bml_spec.workload, seed=seed)
        trace = workload.build(days=n_days)
    infra = infra if infra is not None else design(table_i_profiles())

    def scenario(name: str, **overrides) -> ScenarioRun:
        spec = specs[name]
        if overrides:
            spec = replace(spec, scheduler=replace(spec.scheduler, **overrides))
        scheduling = spec.scheduler.policy in ("bml", "transition-aware")
        if engine is not None and scheduling:
            spec = replace(spec, engine=engine)
        return run_scenario(
            spec,
            trace=trace,
            infra=infra,
            predictor=predictor if scheduling else None,
        )

    bml = scenario("paper-bml", policy=policy, method=method)
    upper_global = scenario("paper-upper-global")
    upper_per_day = scenario("paper-upper-perday")
    lower = scenario("paper-lower-bound", method=method)
    overhead = overhead_stats(
        bml.result.per_day_energy(), lower.result.per_day_energy()
    )
    return Fig5Outcome(
        trace=trace,
        infra=infra,
        upper_global=upper_global.result,
        upper_per_day=upper_per_day.result,
        bml=bml.result,
        lower_bound=lower.result,
        overhead=overhead,
        runs=[upper_global, upper_per_day, bml, lower],
    )
