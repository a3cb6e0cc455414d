"""Declarative scenario specifications.

A scenario — "replay *this workload* on *this infrastructure* under *this
policy* and account energy/QoS" — used to be hand-wired in parallel
across :mod:`repro.experiments`, the CLI, the example scripts and the
figure benchmarks.  This module turns it into data: three frozen
dataclasses describe the workload, the scheduling policy and the overall
scenario, all JSON-round-trippable through ``to_dict``/``from_dict`` so
the CLI and saved configuration files speak the same language as the
library.

* :class:`WorkloadSpec` — where the load trace comes from (the synthetic
  World Cup, composable synthetic patterns, a WC98-format archive, or a
  CSV/NPZ file) and how long it runs.  The ``days`` field is first-class;
  the ``REPRO_FIG5_DAYS`` environment variable merely overrides it for
  shrunken iteration runs.
* :class:`SchedulerSpec` — the planning policy (the paper's pro-active
  BML scheduler, the transition-aware variant, the two homogeneous upper
  bounds, or the theoretical lower bound), its predictor, and optional
  node constraints (bounded inventory or instance bounds).
* :class:`ScenarioSpec` — profiles source, optional RAPL-style power cap,
  workload, scheduler and replay engine, plus registry metadata.

Specs are *descriptions*: building traces, predictors and infrastructures
happens in :mod:`repro.scenarios.runner`, which routes every table
construction through the :meth:`repro.core.bml.BMLInfrastructure.table`
cache.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.prediction import (
    EWMAPredictor,
    LookAheadMaxPredictor,
    NoisyPredictor,
    PerfectPredictor,
    Predictor,
    TrailingMaxPredictor,
)
from ..core.profiles import (
    ArchitectureProfile,
    illustrative_profiles,
    table_i_profiles,
)
from ..sim.application import ApplicationSpec
from ..sim.powercap import capped_profile
from ..workload import patterns
from ..workload.trace import SECONDS_PER_DAY, LoadTrace
from ..workload.worldcup import PAPER_DAYS, synthesize

__all__ = [
    "FIG5_DAYS_ENV",
    "WorkloadSpec",
    "SchedulerSpec",
    "ScenarioSpec",
    "ScenarioError",
]

#: Environment shortcut shrinking every day-parameterised workload; the
#: spec's ``days`` field is the source of truth, the env var an override.
FIG5_DAYS_ENV = "REPRO_FIG5_DAYS"

WORKLOAD_SOURCES = ("worldcup", "pattern", "wc98", "csv", "npz")
PATTERNS = ("diurnal", "flashcrowd", "steady")
POLICIES = (
    "bml",
    "transition-aware",
    "upper-global",
    "upper-per-day",
    "lower-bound",
)
PREDICTORS = ("lookahead-max", "perfect", "trailing-max", "ewma")
ENGINES = (
    "fast",
    "event",
    "event-twophase",
    "event-reference",
)
PROFILE_SOURCES = ("table1", "illustrative")


class ScenarioError(ValueError):
    """Raised for malformed scenario specifications."""


def _freeze(mapping: Optional[Mapping]) -> Optional[Tuple[Tuple[str, object], ...]]:
    """Mapping/items -> key-sorted item tuple.

    Canonical (sorted) order keeps frozen specs hashable *and* makes
    semantically equal inputs compare equal regardless of how the caller
    ordered them — the ``from_dict(to_dict(spec)) == spec`` guarantee
    depends on both branches normalising identically.
    """
    if mapping is None:
        return None
    items = mapping if isinstance(mapping, tuple) else mapping.items()
    return tuple(sorted(((str(k), v) for k, v in items), key=lambda kv: kv[0]))


def _nondefault_dict(obj) -> Dict[str, object]:
    """Every dataclass field whose value differs from its default.

    Emitting only the overrides keeps ``to_dict`` output minimal while
    guaranteeing that ``from_dict(to_dict(spec)) == spec`` for any spec
    (omitted keys fall back to the very defaults they equalled).
    """
    out: Dict[str, object] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.default is not MISSING and value == f.default:
            continue
        if f.default_factory is not MISSING and value == f.default_factory():
            continue
        out[f.name] = value
    return out


@dataclass(frozen=True)
class WorkloadSpec:
    """Where the load trace comes from and how long it runs.

    ``source``:

    * ``"worldcup"`` — the synthetic WC98-shaped workload (the paper's
      evaluation trace, days 6..92);
    * ``"pattern"`` — composable synthetic patterns (``pattern`` selects
      ``"diurnal"``, ``"flashcrowd"`` or ``"steady"``);
    * ``"wc98"`` — daily log files in the original archive record format
      (``path`` may contain ``*`` globs);
    * ``"csv"`` / ``"npz"`` — a trace previously written by
      :meth:`repro.workload.trace.LoadTrace.to_csv` / ``to_npz``.

    ``params`` carries source-specific keyword overrides as a frozen item
    tuple (e.g. ``(("base_rate", 700.0),)`` for the World Cup
    synthesiser); ``to_dict`` renders it as a plain mapping.
    """

    source: str = "worldcup"
    days: int = PAPER_DAYS
    seed: int = 1998
    peak_rate: float = 5000.0
    pattern: str = "diurnal"
    path: Optional[str] = None
    params: Tuple[Tuple[str, object], ...] = ()
    #: True when ``days`` came from an explicit caller choice (CLI
    #: ``--days``, :meth:`ScenarioSpec.with_days`) rather than a spec
    #: default — explicit day counts beat the ``REPRO_FIG5_DAYS`` env var.
    pin_days: bool = False

    def __post_init__(self) -> None:
        if self.source not in WORKLOAD_SOURCES:
            raise ScenarioError(
                f"unknown workload source {self.source!r} "
                f"(expected one of {WORKLOAD_SOURCES})"
            )
        if self.source == "pattern" and self.pattern not in PATTERNS:
            raise ScenarioError(
                f"unknown pattern {self.pattern!r} (expected one of {PATTERNS})"
            )
        if self.days < 1:
            raise ScenarioError("days must be >= 1")
        if self.peak_rate <= 0:
            raise ScenarioError("peak_rate must be > 0")
        if self.source in ("wc98", "csv", "npz") and not self.path:
            raise ScenarioError(f"source {self.source!r} requires a path")
        object.__setattr__(self, "params", _freeze(self.params) or ())

    def is_available(self) -> bool:
        """Whether this workload's external inputs exist right now.

        Synthetic sources are always available; file-backed sources
        (``wc98``/``csv``/``npz``) require their ``path`` (or at least one
        glob match) to exist.  Catalogue sweeps — the scenario-suite
        benchmark, ``repro scenario run --all``, golden pinning — use
        this to skip archive-backed scenarios on machines that do not
        hold the data, instead of crashing the whole sweep.
        """
        if self.source not in ("wc98", "csv", "npz"):
            return True
        if any(ch in self.path for ch in "*?["):
            import glob

            return bool(glob.glob(self.path))
        return os.path.exists(self.path)

    def resolved_days(self) -> int:
        """``days``, unless ``REPRO_FIG5_DAYS`` overrides it.

        The env var only stands in for spec *defaults*; a ``pin_days``
        spec (explicit caller choice) keeps its day count.
        """
        env = os.environ.get(FIG5_DAYS_ENV)
        if self.pin_days:
            return self.days
        if env:
            days = int(env)
            if days < 1:
                raise ScenarioError(f"{FIG5_DAYS_ENV} must be >= 1, got {env}")
            return days
        return self.days

    # -- construction ----------------------------------------------------
    def build(self, days: Optional[int] = None) -> LoadTrace:
        """Materialise the trace this spec describes.

        ``days`` bypasses the env-var resolution entirely — callers with
        an *explicit* day count (e.g. ``run_fig5(n_days=...)``) must not
        be silently overridden by ``REPRO_FIG5_DAYS``, which only stands
        in for the spec's own ``days`` field.
        """
        days = self.resolved_days() if days is None else days
        if self.source == "worldcup":
            return synthesize(
                n_days=days,
                seed=self.seed,
                peak_rate=self.peak_rate,
                **dict(self.params),
            )
        if self.source == "pattern":
            return self._build_pattern(days)
        if self.source == "wc98":
            import glob

            from ..workload.wc98format import read_trace

            paths = (
                sorted(glob.glob(self.path))
                if any(ch in self.path for ch in "*?[")
                else [self.path]
            )
            if not paths:
                raise ScenarioError(f"no wc98 logs match {self.path!r}")
            return read_trace(paths)
        if self.source == "csv":
            return LoadTrace.from_csv(self.path)
        return LoadTrace.from_npz(self.path)

    def _build_pattern(self, days: int) -> LoadTrace:
        duration = days * SECONDS_PER_DAY
        rng = np.random.default_rng(self.seed)
        p = dict(self.params)
        night = float(p.get("night_fraction", 0.15))
        name = f"pattern:{self.pattern}(days={days},seed={self.seed})"
        if self.pattern == "steady":
            base = patterns.constant(duration, 1.0)
            noise = patterns.ar1_noise(
                duration, rng, sigma=float(p.get("sigma", 0.05))
            )
            values = patterns.compose(base, [noise])
        else:
            base = patterns.diurnal(
                duration, low=night, high=1.0,
                peak_hour=float(p.get("peak_hour", 15.0)),
            )
            week = patterns.weekly(duration, 1.0, float(p.get("weekend", 0.9)))
            noise = patterns.ar1_noise(
                duration, rng, sigma=float(p.get("sigma", 0.05))
            )
            values = patterns.compose(base, [week, noise])
            if self.pattern == "flashcrowd":
                per_day = int(p.get("crowds_per_day", 2))
                events = [
                    (
                        d * SECONDS_PER_DAY + float(rng.uniform(8, 22)) * 3600.0,
                        float(rng.uniform(1.0, 3.0)),
                    )
                    for d in range(days)
                    for _ in range(per_day)
                ]
                values = values + patterns.bursts(
                    duration, events,
                    ramp_s=float(p.get("ramp_s", 600.0)),
                    hold_s=float(p.get("hold_s", 1800.0)),
                    decay_s=float(p.get("decay_s", 1200.0)),
                )
        trace = patterns.make_trace(values, name)
        return trace.scaled_to_peak(self.peak_rate)

    # -- round trip ------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out = _nondefault_dict(self)
        if "params" in out:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WorkloadSpec":
        kwargs = dict(data)
        if "params" in kwargs:
            kwargs["params"] = _freeze(kwargs["params"])
        return cls(**kwargs)


@dataclass(frozen=True)
class SchedulerSpec:
    """The planning policy and its knobs.

    ``policy`` selects the plan builder: the paper's pro-active scheduler
    (``"bml"``), the Sec. VI transition-aware variant, the two
    homogeneous upper bounds, or the per-second theoretical lower bound.
    Predictor settings only matter for the scheduling policies; node
    constraints (``inventory`` as per-architecture machine limits, or
    ``min_instances``/``max_instances`` bounds) only for ``"bml"``.
    """

    policy: str = "bml"
    method: str = "greedy"
    predictor: str = "lookahead-max"
    window: int = 378
    noise_sigma: float = 0.0
    noise_bias: float = 1.0
    noise_seed: int = 0
    alpha: float = 0.01
    headroom: float = 1.2
    inventory: Optional[Tuple[Tuple[str, int], ...]] = None
    min_instances: int = 1
    max_instances: Optional[int] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ScenarioError(
                f"unknown policy {self.policy!r} (expected one of {POLICIES})"
            )
        if self.method not in ("greedy", "ideal"):
            raise ScenarioError(f"unknown method {self.method!r}")
        if self.predictor not in PREDICTORS:
            raise ScenarioError(
                f"unknown predictor {self.predictor!r} "
                f"(expected one of {PREDICTORS})"
            )
        if self.noise_sigma < 0:
            raise ScenarioError("noise_sigma must be >= 0")
        if self.inventory is not None and (
            self.min_instances > 1 or self.max_instances is not None
        ):
            raise ScenarioError(
                "inventory limits and instance bounds cannot be combined"
            )
        object.__setattr__(self, "inventory", _freeze(self.inventory))

    # -- construction ----------------------------------------------------
    def build_predictor(self) -> Predictor:
        base: Predictor
        if self.predictor == "lookahead-max":
            base = LookAheadMaxPredictor(self.window)
        elif self.predictor == "perfect":
            base = PerfectPredictor()
        elif self.predictor == "trailing-max":
            base = TrailingMaxPredictor(self.window)
        else:
            base = EWMAPredictor(alpha=self.alpha, headroom=self.headroom)
        if self.noise_sigma > 0 or self.noise_bias != 1.0:
            return NoisyPredictor(
                base=base,
                sigma=self.noise_sigma,
                bias=self.noise_bias,
                seed=self.noise_seed,
            )
        return base

    def inventory_dict(self) -> Optional[Dict[str, int]]:
        return None if self.inventory is None else dict(self.inventory)

    def build_app_spec(self) -> Optional[ApplicationSpec]:
        """Instance bounds as an :class:`ApplicationSpec` (or ``None``)."""
        if self.min_instances <= 1 and self.max_instances is None:
            return None
        return ApplicationSpec(
            min_instances=self.min_instances, max_instances=self.max_instances
        )

    # -- round trip ------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out = _nondefault_dict(self)
        out.setdefault("policy", self.policy)
        if "inventory" in out:
            out["inventory"] = dict(self.inventory)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SchedulerSpec":
        kwargs = dict(data)
        if "inventory" in kwargs and kwargs["inventory"] is not None:
            kwargs["inventory"] = _freeze(kwargs["inventory"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, runnable scenario.

    ``label`` is the scenario string stamped on the produced
    :class:`~repro.sim.results.SimulationResult` (the paper's four Fig. 5
    scenarios keep their published names); it defaults to ``name``.
    ``powercap`` applies a RAPL-style cap to every profile, expressed as
    the capped fraction of each machine's dynamic range in ``(0, 1]``
    (``cap = idle + powercap * (max - idle)``, see
    :mod:`repro.sim.powercap`).  ``engine`` selects the replay
    implementation: the vectorised plan executor (``"fast"``), the
    event-driven simulator (``"event"``, the two-phase control/evaluate
    engine), or one of its explicit variants — the two-phase engine
    (``"event-twophase"``) or the per-second reference loop
    (``"event-reference"``).  The event engines walk the BML decision
    rule, so they take the ``"bml"`` policy only.  Specs naming the ``"event-segments"``
    engine, deleted with the segment-compressed replay, are rejected;
    stored records keep such specs as plain dicts and still load.
    """

    name: str
    label: Optional[str] = None
    description: str = ""
    profiles: str = "table1"
    powercap: Optional[float] = None
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    engine: str = "fast"
    tags: Tuple[str, ...] = ()
    #: Sweep provenance: the grid coordinates this spec was minted at,
    #: as ``(axis, value)`` pairs of JSON scalars (see
    #: :mod:`repro.scenarios.sweep`).  Reports facet on these.
    axes: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        frozen_axes = _freeze(self.axes) or ()
        for axis, value in frozen_axes:
            if value is not None and not isinstance(value, (str, int, float, bool)):
                raise ScenarioError(
                    f"axis {axis!r} value {value!r} is not a JSON scalar "
                    "(sweep axes must round-trip through to_dict)"
                )
        object.__setattr__(self, "axes", frozen_axes)
        if self.profiles not in PROFILE_SOURCES:
            raise ScenarioError(
                f"unknown profile source {self.profiles!r} "
                f"(expected one of {PROFILE_SOURCES})"
            )
        if self.engine not in ENGINES:
            raise ScenarioError(
                f"unknown engine {self.engine!r} (expected one of {ENGINES})"
            )
        if self.powercap is not None and not 0 < self.powercap <= 1:
            raise ScenarioError("powercap must be a fraction in (0, 1]")
        if self.engine != "fast" and self.scheduler.policy != "bml":
            # The event-driven replay walks the BML decision rule only.
            raise ScenarioError(
                f"engine {self.engine!r} replays the 'bml' policy only, "
                f"not {self.scheduler.policy!r}"
            )
        object.__setattr__(self, "tags", tuple(self.tags))

    @property
    def scenario_label(self) -> str:
        return self.label if self.label else self.name

    def build_profiles(self) -> Tuple[ArchitectureProfile, ...]:
        """The (possibly power-capped) Step 1 profiles of this scenario."""
        profs = (
            table_i_profiles()
            if self.profiles == "table1"
            else illustrative_profiles()
        )
        if self.powercap is None:
            return tuple(profs)
        return tuple(
            capped_profile(
                p, p.idle_power + self.powercap * (p.max_power - p.idle_power)
            )
            for p in profs
        )

    def with_days(self, days: int) -> "ScenarioSpec":
        """Copy of this spec with the workload pinned to ``days``.

        The day count is *pinned*: an explicit caller choice is not
        subject to the ``REPRO_FIG5_DAYS`` spec-default override.
        """
        return replace(
            self, workload=replace(self.workload, days=days, pin_days=True)
        )

    # -- round trip ------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out = _nondefault_dict(self)
        out["name"] = self.name
        out["workload"] = self.workload.to_dict()
        out["scheduler"] = self.scheduler.to_dict()
        if "tags" in out:
            out["tags"] = list(self.tags)
        if "axes" in out:
            out["axes"] = dict(self.axes)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        kwargs = dict(data)
        if "workload" in kwargs:
            kwargs["workload"] = WorkloadSpec.from_dict(kwargs["workload"])
        if "scheduler" in kwargs:
            kwargs["scheduler"] = SchedulerSpec.from_dict(kwargs["scheduler"])
        if "tags" in kwargs:
            kwargs["tags"] = tuple(kwargs["tags"])
        if "axes" in kwargs:
            kwargs["axes"] = _freeze(kwargs["axes"])
        return cls(**kwargs)

    def spec_key(self) -> str:
        """Canonical string identity of this spec.

        The sorted, whitespace-free JSON encoding of :meth:`to_dict` —
        stable across processes and save/load cycles (``to_dict`` only
        emits non-default fields, so adding spec fields later does not
        change the keys of old specs).  ``run_suite(..., resume=True)``
        uses it to match suite specs against stored
        :class:`~repro.results.record.ScenarioResult` records.
        """
        import json

        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
