"""Named scenario registry.

The paper's evaluation is a fixed four-scenario comparison (Fig. 5); the
registry makes those four first-class *and* extensible: every entry is a
:class:`~repro.scenarios.spec.ScenarioSpec` reachable by name from the
CLI (``repro scenario list|show|run``), the experiments module, examples
and benchmarks.  ``register`` accepts new scenarios at runtime (plugins,
notebooks, tests).

The seeded catalogue covers the paper's comparison plus the extension
axes the reproduction exposes: node-constrained services, bounded
inventories, RAPL-style power caps, degraded predictors, synthetic
pattern workloads, homogeneous baselines and the event-driven engine.
Non-paper scenarios default to week-or-shorter workloads so the whole
catalogue stays cheap to sweep (``repro scenario run --all``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .spec import ScenarioError, ScenarioSpec, SchedulerSpec, WorkloadSpec
from .sweep import SweepSpec

__all__ = [
    "PAPER_SCENARIOS",
    "WC98_ARCHIVE_GLOB",
    "register",
    "get",
    "names",
    "specs",
    "by_tag",
    "register_sweep",
    "get_sweep",
    "sweep_names",
    "sweeps",
]

#: The four Fig. 5 scenarios, in the paper's presentation order.
PAPER_SCENARIOS: Tuple[str, ...] = (
    "paper-upper-global",
    "paper-upper-perday",
    "paper-bml",
    "paper-lower-bound",
)

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Add a scenario to the registry (``replace=True`` to overwrite)."""
    if not replace and spec.name in _REGISTRY:
        raise ScenarioError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ScenarioSpec:
    """Look a scenario up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ScenarioError(f"unknown scenario {name!r} (known: {known})") from None


def names() -> List[str]:
    """All registered scenario names (registration order)."""
    return list(_REGISTRY)


def specs() -> List[ScenarioSpec]:
    """All registered scenarios (registration order)."""
    return list(_REGISTRY.values())


def by_tag(tag: str) -> List[ScenarioSpec]:
    """Scenarios carrying ``tag``."""
    return [s for s in _REGISTRY.values() if tag in s.tags]


# ---------------------------------------------------------------------------
# Sweep registry
# ---------------------------------------------------------------------------

_SWEEPS: Dict[str, SweepSpec] = {}


def register_sweep(sweep: SweepSpec, replace: bool = False) -> SweepSpec:
    """Add a sweep to the registry (``replace=True`` to overwrite)."""
    if not replace and sweep.name in _SWEEPS:
        raise ScenarioError(f"sweep {sweep.name!r} is already registered")
    _SWEEPS[sweep.name] = sweep
    return sweep


def get_sweep(name: str) -> SweepSpec:
    """Look a sweep up by name."""
    try:
        return _SWEEPS[name]
    except KeyError:
        known = ", ".join(sorted(_SWEEPS))
        raise ScenarioError(f"unknown sweep {name!r} (known: {known})") from None


def sweep_names() -> List[str]:
    """All registered sweep names (registration order)."""
    return list(_SWEEPS)


def sweeps() -> List[SweepSpec]:
    """All registered sweeps (registration order)."""
    return list(_SWEEPS.values())


# ---------------------------------------------------------------------------
# Seeded catalogue
# ---------------------------------------------------------------------------

_PAPER_WORKLOAD = WorkloadSpec()  # synthetic WC98, days 6..92, peak 5000
_WEEK = WorkloadSpec(days=7, seed=7, peak_rate=4000.0)
_TWO_DAYS = WorkloadSpec(days=2, seed=11, peak_rate=3000.0)

# -- the paper's four Fig. 5 scenarios --------------------------------------
register(ScenarioSpec(
    name="paper-upper-global",
    label="UpperBound Global",
    description="4 Big machines sized for the global peak, always On "
                "(the classical over-provisioned data center).",
    workload=_PAPER_WORKLOAD,
    scheduler=SchedulerSpec(policy="upper-global"),
    tags=("paper", "fig5", "baseline"),
))
register(ScenarioSpec(
    name="paper-upper-perday",
    label="UpperBound PerDay",
    description="Homogeneous Big servers re-dimensioned each midnight "
                "(coarse-grain capacity planning).",
    workload=_PAPER_WORKLOAD,
    scheduler=SchedulerSpec(policy="upper-per-day"),
    tags=("paper", "fig5", "baseline"),
))
register(ScenarioSpec(
    name="paper-bml",
    label="Big-Medium-Little",
    description="The pro-active BML scheduler with the paper's 378 s "
                "look-ahead-max prediction and greedy Step 5 combinations.",
    workload=_PAPER_WORKLOAD,
    scheduler=SchedulerSpec(policy="bml"),
    tags=("paper", "fig5"),
))
register(ScenarioSpec(
    name="paper-lower-bound",
    label="LowerBound Theoretical",
    description="Per-second ideal combination with free, instantaneous "
                "switching — the unreachable energy floor.",
    workload=_PAPER_WORKLOAD,
    scheduler=SchedulerSpec(policy="lower-bound"),
    tags=("paper", "fig5", "baseline"),
))

# -- constrained services ----------------------------------------------------
register(ScenarioSpec(
    name="constrained-redundant",
    description="Redundant service: at least 2 and at most 6 instances "
                "(Sec. III node bounds, combinations via the bounded DP).",
    workload=_TWO_DAYS,
    scheduler=SchedulerSpec(policy="bml", min_instances=2, max_instances=6),
    tags=("constrained",),
))

# -- inventory ablations -----------------------------------------------------
register(ScenarioSpec(
    name="inventory-small-dc",
    description="Existing data center owning 2 Big, 20 Medium and 10 "
                "Little machines; shortfalls surface as unserved demand.",
    workload=_TWO_DAYS,
    scheduler=SchedulerSpec(
        policy="bml",
        inventory=(("chromebook", 20), ("paravance", 2), ("raspberry", 10)),
    ),
    tags=("inventory",),
))
register(ScenarioSpec(
    name="inventory-no-medium",
    description="Inventory ablation: no Medium tier — Bigs and Littles "
                "only (how much does the middle class buy?).",
    workload=_TWO_DAYS,
    scheduler=SchedulerSpec(
        policy="bml",
        inventory=(("chromebook", 0), ("paravance", 6), ("raspberry", 600)),
    ),
    tags=("inventory", "ablation"),
))

# -- power capping -----------------------------------------------------------
register(ScenarioSpec(
    name="power-capped",
    description="RAPL-style cap at 70% of every machine's dynamic range: "
                "capping flattens peaks but cannot touch the idle floor "
                "(Sec. II counterpoint).",
    powercap=0.7,
    workload=_TWO_DAYS,
    scheduler=SchedulerSpec(policy="bml"),
    tags=("powercap",),
))

# -- prediction error --------------------------------------------------------
register(ScenarioSpec(
    name="noisy-prediction",
    description="Look-ahead oracle degraded with 15% log-normal error "
                "(Sec. VI future-work study).",
    workload=_TWO_DAYS,
    scheduler=SchedulerSpec(policy="bml", noise_sigma=0.15, noise_seed=1),
    tags=("prediction-error",),
))
register(ScenarioSpec(
    name="underestimating-prediction",
    description="Biased predictor at 85% of the true peak: "
                "under-provisioning shows up as unserved demand.",
    workload=_TWO_DAYS,
    scheduler=SchedulerSpec(
        policy="bml", noise_sigma=0.10, noise_bias=0.85, noise_seed=1
    ),
    tags=("prediction-error",),
))
register(ScenarioSpec(
    name="reactive-trailing",
    description="No oracle: trailing-max over the past 378 s (what a real "
                "deployment can compute; lags every rising edge).",
    workload=_TWO_DAYS,
    scheduler=SchedulerSpec(policy="bml", predictor="trailing-max"),
    tags=("prediction-error",),
))

# -- pattern workloads -------------------------------------------------------
register(ScenarioSpec(
    name="pattern-flashcrowd",
    description="Synthetic diurnal workload with random flash crowds "
                "(2/day) under the BML scheduler.",
    workload=WorkloadSpec(
        source="pattern", pattern="flashcrowd", days=2, seed=5,
        peak_rate=3500.0,
    ),
    scheduler=SchedulerSpec(policy="bml"),
    tags=("pattern",),
))
register(ScenarioSpec(
    name="pattern-steady",
    description="Near-constant load: the regime where heterogeneity buys "
                "the least (BML should track one steady combination).",
    workload=WorkloadSpec(
        source="pattern", pattern="steady", days=1, seed=5, peak_rate=2000.0,
    ),
    scheduler=SchedulerSpec(policy="bml"),
    tags=("pattern",),
))

# -- homogeneous baselines ---------------------------------------------------
register(ScenarioSpec(
    name="homogeneous-week-global",
    description="Homogeneous baseline on a week: Bigs sized for the "
                "weekly peak, always On.",
    workload=_WEEK,
    scheduler=SchedulerSpec(policy="upper-global"),
    tags=("baseline", "homogeneous"),
))
register(ScenarioSpec(
    name="homogeneous-week-perday",
    description="Homogeneous baseline on a week: Bigs re-dimensioned "
                "each midnight.",
    workload=_WEEK,
    scheduler=SchedulerSpec(policy="upper-per-day"),
    tags=("baseline", "homogeneous"),
))

# -- WC98 archive-file workloads ---------------------------------------------
# The paper replays days 6..92 of the original World Cup 1998 trace; the
# archive distributes it as gzipped binary daily logs
# (:mod:`repro.workload.wc98format`).  These entries replay whatever logs
# are dropped under ``data/wc98/`` — relative to the working directory —
# so the catalogue is ready the moment someone obtains the archive.
# ``WorkloadSpec.is_available()`` reports whether the files are present;
# sweeps (the scenario-suite benchmark, ``repro scenario run --all``,
# golden pinning) skip them when they are not.  The end-to-end path is
# tested by writing synthetic logs through ``wc98format.write_records``
# and replaying them (``tests/test_scenarios.py``).
WC98_ARCHIVE_GLOB = "data/wc98/*.log.gz"

register(ScenarioSpec(
    name="wc98-archive-bml",
    description="The BML pro-active scheduler over original WC98 archive "
                "logs (drop the gzipped binary dailies in data/wc98/).",
    workload=WorkloadSpec(source="wc98", path=WC98_ARCHIVE_GLOB, days=87),
    scheduler=SchedulerSpec(policy="bml"),
    tags=("wc98", "archive"),
))
register(ScenarioSpec(
    name="wc98-archive-upper",
    description="UpperBound Global baseline over the same WC98 archive "
                "logs, for savings comparisons against wc98-archive-bml.",
    workload=WorkloadSpec(source="wc98", path=WC98_ARCHIVE_GLOB, days=87),
    scheduler=SchedulerSpec(policy="upper-global"),
    tags=("wc98", "archive", "baseline"),
))

# -- method / engine variants ------------------------------------------------
register(ScenarioSpec(
    name="ideal-dp-combinations",
    description="The BML scheduler sized with exact-DP optimal "
                "combinations instead of the paper's greedy Step 5.",
    workload=_TWO_DAYS,
    scheduler=SchedulerSpec(policy="bml", method="ideal"),
    tags=("ablation",),
))
register(ScenarioSpec(
    name="transition-aware-week",
    description="The Sec. VI transition-aware policy amortising switch "
                "overheads over the prediction horizon.",
    workload=_WEEK,
    scheduler=SchedulerSpec(policy="transition-aware"),
    tags=("policy",),
))
register(ScenarioSpec(
    name="event-engine-day",
    description="One day replayed through the event-driven machine-level "
                "simulator (two-phase engine) instead of the "
                "vectorised plan executor.",
    workload=WorkloadSpec(days=1, seed=13, peak_rate=2500.0),
    scheduler=SchedulerSpec(policy="bml"),
    engine="event",
    tags=("engine",),
))

# ---------------------------------------------------------------------------
# Seeded sweeps
# ---------------------------------------------------------------------------
# Parametric grids over the catalogue (:mod:`repro.scenarios.sweep`):
# ``repro sweep list|show|expand|run``.  Registered sweeps are
# *declarations* — nothing is expanded or built at import time, so even
# a thousand-point grid costs nothing to carry here.

register_sweep(SweepSpec(
    name="grid-smoke",
    description="2x2x2 day-long grid: the smallest sweep that exercises "
                "every layer (expansion, pool fan-out, shared-memory "
                "trace distribution) — the CI smoke grid.",
    base="paper-bml",
    axes=(
        ("policy", ("bml", "upper-global")),
        ("seed", (3, 5)),
        ("peak_rate", (2000.0, 3000.0)),
        ("days", (1,)),
    ),
    tags=("smoke",),
))

register_sweep(SweepSpec(
    name="fig5-grid",
    description="The paper's Fig. 5 comparison as a grid: all four "
                "policies crossed with trace seed and peak rate "
                "(scheduler x workload x max_rate), two days per point.",
    base="paper-bml",
    axes=(
        ("policy", (
            "upper-global", "upper-per-day", "bml", "lower-bound",
        )),
        ("seed", (1998, 7)),
        ("peak_rate", (2500.0, 5000.0, 7500.0)),
        ("days", (2,)),
    ),
    tags=("paper", "fig5"),
))

register_sweep(SweepSpec(
    name="fleet-grid",
    description="A 288-point fleet study over the BML scheduler: "
                "inventory x power cap x prediction error x trace seed "
                "x days x look-ahead window (the ISSUE's fleet-scale "
                "sweep shape).",
    base="paper-bml",
    axes=(
        ("inventory", (
            ("full", None),
            ("small-dc", {"chromebook": 20, "paravance": 2, "raspberry": 10}),
            ("no-medium", {"chromebook": 0, "paravance": 6, "raspberry": 600}),
        )),
        ("powercap", (None, 0.7)),
        ("noise_sigma", (0.0, 0.15)),
        ("seed", (7, 11, 13, 17)),
        ("days", (1, 2)),
        ("window", (189, 378, 756)),
    ),
    tags=("fleet",),
))
