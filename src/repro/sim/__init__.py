"""Data-center simulation substrate.

Two execution paths compute energy and QoS for a scenario:

* the **fast path** (:func:`~repro.sim.datacenter.execute_plan`) integrates
  a :class:`~repro.core.reconfiguration.SchedulePlan` against the trace
  with vectorised numpy — the scenarios' default engine;
* the **event-driven path** (:mod:`repro.sim.loop` over
  :mod:`repro.sim.machine`, :mod:`repro.sim.cluster`,
  :mod:`repro.sim.application`, :mod:`repro.sim.loadbalancer` and
  :mod:`repro.sim.events`) simulates every machine state transition,
  instance deployment and load split from first principles: instances
  serve from the second they are deployed, and the balancer fills
  machines by increasing marginal cost, the assignment the power model
  assumes.  The tests cross-check the fast path against it.
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
