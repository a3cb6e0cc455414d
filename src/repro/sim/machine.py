"""Machine model: a single server with power states and transition costs.

The finite state machine mirrors what the paper measures on real hardware
(Table I's On/Off durations and energies)::

    OFF --power_on()--> BOOTING --(on_time elapses)--> ON
    ON --power_off()--> STOPPING --(off_time elapses)--> OFF

Power draw per state:

* ``OFF`` — 0 W;
* ``BOOTING`` — ``on_energy / ceil(on_time)`` W, so the integral over the
  (integer-second) boot window equals the measured ``on_energy`` exactly;
* ``ON`` — the linear model ``idle + slope * load``;
* ``STOPPING`` — ``off_energy / ceil(off_time)`` W, same convention.

State changes and load assignments are reported to an
:class:`~repro.sim.energy.EnergyMeter` so energy is integrated exactly
over arbitrary (non-integer) intervals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..core.profiles import ArchitectureProfile
from ..core.reconfiguration import _ceil_s
from .energy import EnergyMeter

__all__ = ["MachineState", "Machine", "MachineError"]


class MachineError(RuntimeError):
    """Raised on invalid state transitions or load assignments."""


class MachineState(enum.Enum):
    OFF = "off"
    BOOTING = "booting"
    ON = "on"
    STOPPING = "stopping"


@dataclass
class Machine:
    """One physical server of a given architecture."""

    machine_id: str
    profile: ArchitectureProfile
    meter: EnergyMeter
    state: MachineState = MachineState.OFF
    load: float = 0.0
    #: time the current transition completes (boot/stop), else None
    transition_ends: Optional[float] = None
    boots: int = 0
    shutdowns: int = 0

    def __post_init__(self) -> None:
        # The transition draws are pure profile constants; precomputing
        # them keeps the replay's plan-building off the ceil/div path.
        self._boot_draw = self.profile.on_energy / max(
            _ceil_s(self.profile.on_time), 1
        )
        self._stop_draw = self.profile.off_energy / max(
            _ceil_s(self.profile.off_time), 1
        )
        self.meter.set_power(self.machine_id, 0.0, 0.0)

    # -- state queries ------------------------------------------------------
    @property
    def power_draw(self) -> float:
        """Instantaneous draw implied by state and load."""
        if self.state is MachineState.OFF:
            return 0.0
        if self.state is MachineState.BOOTING:
            return self._boot_draw
        if self.state is MachineState.STOPPING:
            return self._stop_draw
        return self.profile.idle_power + self.profile.slope * self.load

    # -- transitions ----------------------------------------------------------
    def power_on(self, now: float) -> float:
        """Begin booting; returns the completion time."""
        if self.state is not MachineState.OFF:
            raise MachineError(
                f"{self.machine_id}: power_on from {self.state.name}"
            )
        self.state = MachineState.BOOTING
        self.load = 0.0
        self.transition_ends = now + _ceil_s(self.profile.on_time)
        self.boots += 1
        self.meter.set_power(self.machine_id, self.power_draw, now)
        return self.transition_ends

    def complete_boot(self, now: float) -> None:
        """Boot finished: the machine is ON and idle."""
        if self.state is not MachineState.BOOTING:
            raise MachineError(
                f"{self.machine_id}: complete_boot from {self.state.name}"
            )
        self.state = MachineState.ON
        self.transition_ends = None
        self.load = 0.0
        self.meter.set_power(self.machine_id, self.power_draw, now)

    def power_off(self, now: float) -> float:
        """Begin shutting down (load must have been drained)."""
        if self.state is not MachineState.ON:
            raise MachineError(
                f"{self.machine_id}: power_off from {self.state.name}"
            )
        if self.load > 1e-9:
            raise MachineError(
                f"{self.machine_id}: power_off while serving {self.load}"
            )
        self.state = MachineState.STOPPING
        self.transition_ends = now + _ceil_s(self.profile.off_time)
        self.shutdowns += 1
        self.meter.set_power(self.machine_id, self.power_draw, now)
        return self.transition_ends

    def complete_shutdown(self, now: float) -> None:
        """Shutdown finished: the machine draws nothing."""
        if self.state is not MachineState.STOPPING:
            raise MachineError(
                f"{self.machine_id}: complete_shutdown from {self.state.name}"
            )
        self.state = MachineState.OFF
        self.transition_ends = None
        self.meter.set_power(self.machine_id, 0.0, now)

    # -- serving ---------------------------------------------------------------
    def assign_load(self, rate: float, now: float) -> None:
        """Assign a serving rate (ON machines only, within capacity)."""
        if self.state is not MachineState.ON:
            raise MachineError(
                f"{self.machine_id}: assign_load in {self.state.name}"
            )
        if rate < -1e-9 or rate > self.profile.max_perf * (1 + 1e-9):
            raise MachineError(
                f"{self.machine_id}: load {rate} outside [0, {self.profile.max_perf}]"
            )
        self.load = min(max(rate, 0.0), self.profile.max_perf)
        self.meter.set_power(self.machine_id, self.power_draw, now)
