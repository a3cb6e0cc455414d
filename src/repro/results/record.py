"""The one result record every producer distils into.

A :class:`ScenarioResult` is the durable, comparison-ready summary of one
scenario replay: the spec that produced it, the headline metrics the
paper's evaluation reports (energy, QoS, switching overheads), the
per-day energy series behind Fig. 5, and provenance (seed, engine,
elapsed wall time, package version).  It deliberately does *not* carry
the per-second power/unserved arrays of
:class:`~repro.sim.results.SimulationResult` — a record is what survives
the process, travels through a :class:`~repro.results.store.RunStore`,
feeds a :class:`~repro.results.report.SuiteReport` and diffs against
another run; raw series stay with the simulator.

The split serialisation (``to_json_dict`` for spec/metrics/provenance,
``series_arrays`` for the per-day energy) matches the store's on-disk
format: JSON stays greppable, NPZ keeps float64 series bit-exact.  JSON
itself round-trips Python floats exactly (``json.dumps`` emits
``repr``-faithful shortest forms), so a save→load cycle reproduces every
metric bit-identically — pinned by ``tests/results/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, Mapping, Tuple

import numpy as np

from ..sim.results import QoSReport

__all__ = ["ScenarioResult", "ResultError", "HEADLINE_METRICS"]

#: Format tag written into every serialised record.
RESULT_FORMAT = 1

#: The deterministic headline metrics of a run, in report order.  These
#: are what golden pinning, ``repro scenario diff`` and the round-trip
#: tests compare; provenance (elapsed time, timestamps) is excluded.
HEADLINE_METRICS: Tuple[str, ...] = (
    "total_energy_j",
    "total_energy_kwh",
    "mean_power_w",
    "n_reconfigurations",
    "switch_energy_j",
    "switch_time_s",
    "total_demand",
    "unserved_demand",
    "violation_seconds",
    "worst_deficit",
    "served_fraction",
)


class ResultError(ValueError):
    """Raised for malformed or mismatched result records."""


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class ScenarioResult:
    """Frozen summary of one scenario replay.

    Built with :meth:`from_run` from a
    :class:`~repro.scenarios.runner.ScenarioRun`; energies are Joules,
    times seconds, demand in request-seconds (the trace's units).
    """

    name: str                                #: registry/spec name
    label: str                               #: published scenario label
    spec: Dict[str, object]                  #: ``ScenarioSpec.to_dict()``
    days: int                                #: replayed day count
    timestep: float                          #: replay resolution (s)
    # -- headline energy ---------------------------------------------------
    total_energy_j: float
    mean_power_w: float
    # -- switching overheads (the paper's reconfiguration accounting) ------
    n_reconfigurations: int
    switch_energy_j: float
    switch_time_s: float                     #: summed blocking durations
    # -- QoS ---------------------------------------------------------------
    total_demand: float
    unserved_demand: float
    violation_seconds: int
    worst_deficit: float
    # -- series ------------------------------------------------------------
    per_day_energy_j: Tuple[float, ...]      #: the Fig. 5 series (J/day)
    # -- provenance --------------------------------------------------------
    seed: int
    engine: str
    elapsed_s: float
    version: str
    created_at: str = field(default_factory=_utcnow)

    def __post_init__(self) -> None:
        if not self.name:
            raise ResultError("result name must be non-empty")
        object.__setattr__(
            self,
            "per_day_energy_j",
            tuple(float(v) for v in self.per_day_energy_j),
        )
        object.__setattr__(self, "spec", dict(self.spec))

    # -- construction ------------------------------------------------------
    @classmethod
    def from_run(cls, run) -> "ScenarioResult":
        """Distil a :class:`~repro.scenarios.runner.ScenarioRun`.

        Duck-typed on the run's ``spec``/``result``/``days``/``qos()``/
        ``elapsed_s`` surface so this module needs no scenarios import.
        """
        from .. import __version__

        result = run.result
        qos = run.qos()
        spec = run.spec
        return cls(
            name=spec.name,
            label=result.scenario,
            spec=spec.to_dict(),
            days=int(run.days),
            timestep=float(result.timestep),
            total_energy_j=result.total_energy,
            mean_power_w=result.mean_power,
            n_reconfigurations=int(result.n_reconfigurations),
            switch_energy_j=float(result.switch_energy),
            switch_time_s=float(result.reconfigurations.duration.sum()),
            total_demand=float(qos.total_demand),
            unserved_demand=float(qos.unserved_demand),
            violation_seconds=int(qos.violation_seconds),
            worst_deficit=float(qos.worst_deficit),
            per_day_energy_j=tuple(
                float(v) for v in result.per_day_energy()
            ),
            seed=int(spec.workload.seed),
            engine=result.engine or spec.engine,
            elapsed_s=float(run.elapsed_s),
            version=__version__,
        )

    # -- derived metrics ---------------------------------------------------
    @property
    def total_energy_kwh(self) -> float:
        return self.total_energy_j / 3.6e6

    @property
    def switch_energy_kwh(self) -> float:
        return self.switch_energy_j / 3.6e6

    @property
    def served_fraction(self) -> float:
        return self.qos.served_fraction

    @property
    def qos(self) -> QoSReport:
        """The QoS summary as the simulator's own report type."""
        return QoSReport(
            total_demand=self.total_demand,
            unserved_demand=self.unserved_demand,
            violation_seconds=self.violation_seconds,
            worst_deficit=self.worst_deficit,
        )

    def per_day_energy(self) -> np.ndarray:
        """Per-day energy in Joules (the Fig. 5 series)."""
        return np.asarray(self.per_day_energy_j, dtype=float)

    def per_day_energy_kwh(self) -> np.ndarray:
        return self.per_day_energy() / 3.6e6

    def metrics(self) -> Dict[str, float]:
        """The deterministic headline metrics (see ``HEADLINE_METRICS``)."""
        return {m: getattr(self, m) for m in HEADLINE_METRICS}

    def spec_key(self) -> str:
        """Canonical identity of the producing spec (see
        :meth:`ScenarioSpec.spec_key <repro.scenarios.spec.ScenarioSpec.spec_key>`);
        ``run_suite(..., resume=True)`` matches stored records to suite
        specs on this key."""
        import json

        return json.dumps(self.spec, sort_keys=True, separators=(",", ":"))

    def summary_row(self) -> Dict[str, object]:
        """One report-table row (the suite/CLI summary shape)."""
        return {
            "scenario": self.name,
            "label": self.label,
            "energy_kwh": round(self.total_energy_kwh, 2),
            "mean_power_w": round(self.mean_power_w, 1),
            "reconfigs": self.n_reconfigurations,
            "switch_kwh": round(self.switch_energy_kwh, 3),
            "unserved_s": self.violation_seconds,
            "served_frac": round(self.served_fraction, 6),
            "days": self.days,
            "elapsed_s": round(self.elapsed_s, 2),
        }

    # -- serialisation -----------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """Everything but the series, structured for ``result.json``."""
        return {
            "format": RESULT_FORMAT,
            "name": self.name,
            "label": self.label,
            "days": self.days,
            "timestep": self.timestep,
            "spec": self.spec,
            "metrics": {
                "total_energy_j": self.total_energy_j,
                "mean_power_w": self.mean_power_w,
                "n_reconfigurations": self.n_reconfigurations,
                "switch_energy_j": self.switch_energy_j,
                "switch_time_s": self.switch_time_s,
                "total_demand": self.total_demand,
                "unserved_demand": self.unserved_demand,
                "violation_seconds": self.violation_seconds,
                "worst_deficit": self.worst_deficit,
            },
            "provenance": {
                "seed": self.seed,
                "engine": self.engine,
                "elapsed_s": self.elapsed_s,
                "version": self.version,
                "created_at": self.created_at,
            },
        }

    def series_arrays(self) -> Dict[str, np.ndarray]:
        """The NPZ payload (float64, bit-exact round trip)."""
        return {
            "per_day_energy_j": np.asarray(self.per_day_energy_j, dtype=float)
        }

    @classmethod
    def from_parts(
        cls,
        data: Mapping[str, object],
        series: Mapping[str, np.ndarray],
    ) -> "ScenarioResult":
        """Rebuild a record from ``to_json_dict`` + ``series_arrays``."""
        if data.get("format") != RESULT_FORMAT:
            raise ResultError(
                f"unsupported result format {data.get('format')!r} "
                f"(expected {RESULT_FORMAT})"
            )
        try:
            metrics = data["metrics"]
            provenance = data["provenance"]
            per_day = series["per_day_energy_j"]
            return cls(
                name=data["name"],
                label=data["label"],
                spec=dict(data["spec"]),
                days=int(data["days"]),
                timestep=float(data["timestep"]),
                total_energy_j=metrics["total_energy_j"],
                mean_power_w=metrics["mean_power_w"],
                n_reconfigurations=int(metrics["n_reconfigurations"]),
                switch_energy_j=metrics["switch_energy_j"],
                switch_time_s=metrics["switch_time_s"],
                total_demand=metrics["total_demand"],
                unserved_demand=metrics["unserved_demand"],
                violation_seconds=int(metrics["violation_seconds"]),
                worst_deficit=metrics["worst_deficit"],
                per_day_energy_j=tuple(float(v) for v in np.asarray(per_day)),
                seed=int(provenance["seed"]),
                engine=provenance["engine"],
                elapsed_s=provenance["elapsed_s"],
                version=provenance["version"],
                created_at=provenance["created_at"],
            )
        except KeyError as exc:
            raise ResultError(f"result record is missing {exc}") from None

    def load_spec(self):
        """The stored spec as a live :class:`ScenarioSpec` (lazy import)."""
        from ..scenarios.spec import ScenarioSpec

        return ScenarioSpec.from_dict(self.spec)
