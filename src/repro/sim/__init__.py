"""Data-center simulation substrate.

Two execution paths compute energy and QoS for a scenario:

* the **fast path** (:func:`~repro.sim.datacenter.execute_plan`) integrates
  a :class:`~repro.core.reconfiguration.SchedulePlan` against the trace
  with vectorised numpy — used by all benchmarks;
* the **event-driven path** (:mod:`repro.sim.machine`,
  :mod:`repro.sim.cluster`, :mod:`repro.sim.loop`) simulates every machine
  state transition, application instance and load-balancer update from
  first principles — the reference implementation the tests cross-check
  the fast path against.
"""

from .datacenter import execute_plan, lower_bound_result
from .energy import EnergyMeter, combination_power, power_breakpoints
from .powercap import CappedMachine, capped_profile, capped_stack_power
from .results import QoSReport, SimulationResult

__all__ = [
    "execute_plan",
    "lower_bound_result",
    "combination_power",
    "power_breakpoints",
    "EnergyMeter",
    "QoSReport",
    "SimulationResult",
    "CappedMachine",
    "capped_profile",
    "capped_stack_power",
]
