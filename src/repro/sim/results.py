"""Simulation results: energy, QoS and reconfiguration accounting.

A :class:`SimulationResult` holds the per-second power series of one
scenario replay plus everything the paper's evaluation reports: per-day
energy (Fig. 5 series), switching overheads, and QoS (unserved demand)
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.reconfiguration import ReconfigurationLog
from ..workload.trace import SECONDS_PER_DAY, LoadTrace

__all__ = ["SimulationResult", "QoSReport"]


@dataclass(frozen=True)
class QoSReport:
    """Quality-of-service summary of a replay.

    ``unserved_demand`` is the integral of load exceeding online capacity
    (requests that could not be processed); ``violation_seconds`` counts
    seconds with any unserved demand.
    """

    total_demand: float
    unserved_demand: float
    violation_seconds: int
    worst_deficit: float

    @property
    def served_fraction(self) -> float:
        """Fraction of the total demand that was served (1.0 = perfect)."""
        if self.total_demand <= 0:
            return 1.0
        return 1.0 - self.unserved_demand / self.total_demand


@dataclass
class SimulationResult:
    """Outcome of replaying one scenario against a load trace.

    ``reconfigurations`` is a columnar
    :class:`~repro.core.reconfiguration.ReconfigurationLog`, so a
    pickled result carries no per-event object.
    """

    scenario: str
    trace_name: str
    timestep: float
    power: np.ndarray
    unserved: np.ndarray
    reconfigurations: ReconfigurationLog = field(
        default_factory=ReconfigurationLog.of
    )
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.power = np.asarray(self.power, dtype=float)
        self.unserved = np.asarray(self.unserved, dtype=float)
        if self.power.shape != self.unserved.shape:
            raise ValueError("power and unserved series must align")
        if self.timestep <= 0:
            raise ValueError("timestep must be > 0")

    # -- energy ------------------------------------------------------------
    @property
    def total_energy(self) -> float:
        """Total energy in Joules over the replay."""
        return float(np.sum(self.power) * self.timestep)

    @property
    def total_energy_kwh(self) -> float:
        """Total energy in kWh."""
        return self.total_energy / 3.6e6

    @property
    def mean_power(self) -> float:
        """Average power draw in Watts."""
        return float(np.mean(self.power))

    def per_day_energy(self) -> np.ndarray:
        """Energy per day in Joules (the Fig. 5 series).

        The last day may be partial; its energy covers the remaining
        samples only.
        """
        spd = SECONDS_PER_DAY / self.timestep
        if abs(spd - round(spd)) > 1e-9:
            raise ValueError("timestep does not divide a day")
        spd = int(round(spd))
        n = len(self.power)
        full = n // spd
        out: List[float] = []
        if full:
            out.extend(
                self.power[: full * spd].reshape(full, spd).sum(axis=1) * self.timestep
            )
        if n % spd:
            out.append(float(self.power[full * spd :].sum() * self.timestep))
        return np.asarray(out)

    def per_day_energy_kwh(self) -> np.ndarray:
        """Per-day energy in kWh."""
        return self.per_day_energy() / 3.6e6

    @property
    def switch_energy(self) -> float:
        """Total On/Off overhead energy (Joules) across reconfigurations."""
        return self.reconfigurations.total_switch_energy

    @property
    def n_reconfigurations(self) -> int:
        return len(self.reconfigurations)

    @property
    def engine(self) -> Optional[str]:
        """Which replay engine produced this result, when recorded.

        ``"twophase"``/``"reference"`` for the event-driven
        replay (see :class:`repro.sim.loop.EventDrivenReplay`); ``None``
        for results that tag no engine, such as plan integration's
        (:func:`repro.sim.datacenter.execute_plan`) and the lower bound.
        """
        value = self.meta.get("engine")
        return str(value) if value is not None else None

    @property
    def n_segments(self) -> Optional[int]:
        """Steady segments evaluated by the two-phase replay, or the plan
        segments :func:`repro.sim.datacenter.execute_plan` integrated."""
        value = self.meta.get("segments")
        return int(value) if value is not None else None

    # -- QoS --------------------------------------------------------------
    def qos(self, trace: Optional[LoadTrace] = None) -> QoSReport:
        """QoS summary; pass the trace to compute the served fraction."""
        total = (
            trace.total_demand
            if trace is not None
            else float(np.sum(self.unserved) * self.timestep)
        )
        return QoSReport(
            total_demand=total,
            unserved_demand=float(np.sum(self.unserved) * self.timestep),
            violation_seconds=int(np.count_nonzero(self.unserved > 1e-9)),
            worst_deficit=float(np.max(self.unserved)) if self.unserved.size else 0.0,
        )

    # -- comparisons -------------------------------------------------------
    def overhead_vs(self, other: "SimulationResult") -> np.ndarray:
        """Per-day relative energy overhead vs a reference result.

        ``overhead[d] = energy[d] / reference_energy[d] - 1`` — the paper
        reports BML at +32 % average (min 6.8 %, max 161.4 %) against the
        theoretical lower bound.
        """
        mine = self.per_day_energy()
        ref = other.per_day_energy()
        if mine.shape != ref.shape:
            raise ValueError("results cover different day counts")
        if np.any(ref <= 0):
            raise ValueError("reference has non-positive daily energy")
        return mine / ref - 1.0
