"""Cluster: machine pools per architecture, with optional inventory limits.

The paper assumes "enough machines of each type are available ... which
enables creating ideal combinations" and notes that, with minor changes,
limited inventories can be handled.  :class:`Cluster` supports both: an
unbounded pool lazily instantiates machines on demand; a bounded pool
raises when a combination needs more nodes of a type than the data
center owns (ablation A4 exercises this).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..core.profiles import ArchitectureProfile
from .energy import EnergyMeter
from .machine import Machine, MachineError, MachineState

__all__ = ["Cluster", "InventoryError"]


class InventoryError(RuntimeError):
    """Raised when a bounded pool cannot supply the requested machines."""


class Cluster:
    """All machines of the data center, grouped by architecture."""

    def __init__(
        self,
        profiles: Sequence[ArchitectureProfile],
        meter: Optional[EnergyMeter] = None,
        inventory: Optional[Mapping[str, int]] = None,
    ) -> None:
        if not profiles:
            raise ValueError("cluster needs at least one architecture")
        names = [p.name for p in profiles]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate architectures: {names}")
        self.meter = meter if meter is not None else EnergyMeter()
        self._profiles: Dict[str, ArchitectureProfile] = {
            p.name: p for p in profiles
        }
        self._pools: Dict[str, List[Machine]] = {p.name: [] for p in profiles}
        #: total machines ever materialised; pools only grow, so this is a
        #: cheap change detector for cached pool-order machine lists.
        self.n_machines = 0
        self._inventory = dict(inventory) if inventory is not None else None
        if self._inventory is not None:
            unknown = set(self._inventory) - set(self._profiles)
            if unknown:
                raise ValueError(f"inventory for unknown architectures: {unknown}")

    # -- introspection -----------------------------------------------------
    @property
    def is_bounded(self) -> bool:
        """Whether this cluster's machine pools have inventory limits."""
        return self._inventory is not None

    def profile(self, arch: str) -> ArchitectureProfile:
        """One architecture's profile (no dict copy — hot-path accessor)."""
        return self._profiles[arch]

    def machines(self, arch: Optional[str] = None) -> List[Machine]:
        """All machines (of one architecture, if given)."""
        if arch is not None:
            return list(self._pools[arch])
        return [m for pool in self._pools.values() for m in pool]

    def n_in_state(self, state: MachineState) -> int:
        """Number of machines in ``state`` across all architectures."""
        return sum(
            1 for pool in self._pools.values() for m in pool if m.state is state
        )

    def machines_in_state(self, state: MachineState) -> List[Machine]:
        """All machines currently in ``state``, in pool order."""
        return [
            m for pool in self._pools.values() for m in pool if m.state is state
        ]

    def on_machines(self, arch: str) -> List[Machine]:
        """ON machines of an architecture (serving-capable)."""
        return [m for m in self._pools[arch] if m.state is MachineState.ON]

    def total_power(self) -> float:
        """Instantaneous draw of the whole cluster."""
        return sum(m.power_draw for pool in self._pools.values() for m in pool)

    # -- allocation --------------------------------------------------------
    def acquire_off_machine(self, arch: str, now: float) -> Machine:
        """An OFF machine of ``arch``, instantiating one if allowed."""
        if arch not in self._pools:
            raise InventoryError(f"unknown architecture {arch!r}")
        for m in self._pools[arch]:
            if m.state is MachineState.OFF:
                return m
        limit = None if self._inventory is None else self._inventory.get(arch, 0)
        if limit is not None and len(self._pools[arch]) >= limit:
            raise InventoryError(
                f"no OFF {arch} machine available (inventory {limit})"
            )
        machine = Machine(
            machine_id=f"{arch}-{len(self._pools[arch])}",
            profile=self._profiles[arch],
            meter=self.meter,
        )
        # Late joiners start metering from the current clock, not t=0.
        self.meter.set_power(machine.machine_id, 0.0, now)
        self._pools[arch].append(machine)
        self.n_machines += 1
        return machine

    def boot(self, arch: str, count: int, now: float) -> List[Machine]:
        """Start booting ``count`` machines of ``arch``; returns them."""
        started = []
        for _ in range(count):
            m = self.acquire_off_machine(arch, now)
            m.power_on(now)
            started.append(m)
        return started

    def pick_shutdown_victims(self, arch: str, count: int) -> List[Machine]:
        """Choose ON machines to stop (least-loaded first)."""
        candidates = sorted(self.on_machines(arch), key=lambda m: m.load)
        if len(candidates) < count:
            raise MachineError(
                f"cannot stop {count} {arch} machines, only "
                f"{len(candidates)} are ON"
            )
        return candidates[:count]
