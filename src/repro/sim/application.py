"""Application model: stateless service instances and their migration.

Sec. III classifies applications by QoS strictness, migratability and
malleability.  The evaluation's web server is the easy case — stateless
and malleable — but the model keeps the general knobs so other services
can be expressed:

* ``malleable`` — can run any number of instances behind the balancer;
  non-malleable services pin ``min_instances == max_instances``;
* migration = stop the instance, start a replacement on the target
  machine, update the load balancer.  An instance serves from the second
  it is deployed: the replay models no start or stop delay.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from .machine import Machine, MachineState

__all__ = ["ApplicationSpec", "AppInstance", "Application", "ApplicationError"]


class ApplicationError(RuntimeError):
    """Raised on invalid instance management operations."""


@dataclass(frozen=True)
class ApplicationSpec:
    """Static characterisation of a service (Sec. III).

    ``qos_class`` is free-form ("critical", "tolerant", ...); the replay
    reports unserved demand and leaves the tolerance judgement to the
    operator, as the paper does.
    """

    name: str = "webserver"
    qos_class: str = "tolerant"
    malleable: bool = True
    min_instances: int = 1
    max_instances: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_instances < 1:
            raise ApplicationError("min_instances must be >= 1")
        if self.max_instances is not None and self.max_instances < self.min_instances:
            raise ApplicationError("max_instances < min_instances")
        if not self.malleable and self.max_instances is None:
            raise ApplicationError(
                "non-malleable applications must bound max_instances"
            )


@dataclass
class AppInstance:
    """One running copy of the application on one machine."""

    instance_id: str
    machine: Machine
    started_at: float


class Application:
    """Instance manager: deploy, retire and migrate instances."""

    def __init__(self, spec: ApplicationSpec) -> None:
        self.spec = spec
        self._instances: Dict[str, AppInstance] = {}
        self._by_machine: Dict[str, str] = {}
        self._ids = itertools.count()

    # -- queries ------------------------------------------------------------
    @property
    def instances(self) -> List[AppInstance]:
        return list(self._instances.values())

    def instance_on(self, machine: Machine) -> Optional[AppInstance]:
        """The instance hosted on ``machine``, if any."""
        iid = self._by_machine.get(machine.machine_id)
        return self._instances.get(iid) if iid else None

    # -- lifecycle ----------------------------------------------------------
    def deploy(self, machine: Machine, now: float) -> AppInstance:
        """Start an instance on an ON machine."""
        if machine.state is not MachineState.ON:
            raise ApplicationError(
                f"cannot deploy on {machine.machine_id} ({machine.state.name})"
            )
        if machine.machine_id in self._by_machine:
            raise ApplicationError(f"{machine.machine_id} already hosts an instance")
        if (
            self.spec.max_instances is not None
            and len(self._instances) >= self.spec.max_instances
        ):
            raise ApplicationError(
                f"instance limit {self.spec.max_instances} reached"
            )
        if not self.spec.malleable and self._instances:
            raise ApplicationError("application is not malleable")
        inst = AppInstance(
            instance_id=f"{self.spec.name}-{next(self._ids)}",
            machine=machine,
            started_at=now,
        )
        self._instances[inst.instance_id] = inst
        self._by_machine[machine.machine_id] = inst.instance_id
        return inst

    def retire(self, machine: Machine, now: float) -> None:
        """Stop the instance on ``machine`` (before the machine stops)."""
        iid = self._by_machine.pop(machine.machine_id, None)
        if iid is None:
            raise ApplicationError(f"no instance on {machine.machine_id}")
        del self._instances[iid]
        machine.assign_load(0.0, now)

    def migrate(self, source: Machine, target: Machine, now: float) -> AppInstance:
        """Stateless migration: stop on source, start on target.

        Returns the new instance (the paper: "stopping a server instance
        and launching a new one on the destination machine, and then
        updating the load balancer").
        """
        self.retire(source, now)
        return self.deploy(target, now)
