"""Unit tests for cluster machine pools and inventory limits."""

import pytest

from repro.core.profiles import TABLE_I, table_i_profiles
from repro.sim.cluster import Cluster, InventoryError
from repro.sim.machine import MachineError, MachineState

P = TABLE_I["paravance"]
R = TABLE_I["raspberry"]


class TestConstruction:
    def test_requires_architectures(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Cluster([P, P])

    def test_rejects_unknown_inventory_keys(self):
        with pytest.raises(ValueError):
            Cluster([P], inventory={"nope": 3})


class TestUnboundedPool:
    def test_lazily_instantiates_machines(self):
        cluster = Cluster([P, R])
        assert cluster.machines() == []
        m = cluster.acquire_off_machine("paravance", 0.0)
        assert m.state is MachineState.OFF
        assert len(cluster.machines("paravance")) == 1

    def test_reuses_off_machines(self):
        cluster = Cluster([R])
        a = cluster.acquire_off_machine("raspberry", 0.0)
        b = cluster.acquire_off_machine("raspberry", 0.0)
        assert a is b  # still OFF, so reused

    def test_boot_many(self):
        cluster = Cluster([R])
        started = cluster.boot("raspberry", 3, 0.0)
        assert len(started) == 3
        assert cluster.machines("raspberry") == started
        assert all(m.state is MachineState.BOOTING for m in started)

    def test_unknown_architecture_rejected(self):
        with pytest.raises(InventoryError):
            Cluster([R]).acquire_off_machine("xeon", 0.0)


class TestBoundedInventory:
    def test_limit_enforced(self):
        cluster = Cluster([R], inventory={"raspberry": 2})
        cluster.boot("raspberry", 2, 0.0)
        with pytest.raises(InventoryError):
            cluster.boot("raspberry", 1, 0.0)


class TestQueries:
    def test_total_power_sums_states(self):
        cluster = Cluster([R])
        m1, m2 = cluster.boot("raspberry", 2, 0.0)
        m1.complete_boot(16.0)
        expected = 3.1 + 40.5 / 16  # one idle + one still booting
        assert cluster.total_power() == pytest.approx(expected)


class TestVictimSelection:
    def test_prefers_least_loaded(self):
        cluster = Cluster([R])
        machines = cluster.boot("raspberry", 3, 0.0)
        for m in machines:
            m.complete_boot(16.0)
        machines[0].assign_load(9.0, 16.0)
        machines[1].assign_load(2.0, 16.0)
        victims = cluster.pick_shutdown_victims("raspberry", 2)
        assert machines[2] in victims and machines[1] in victims
        assert machines[0] not in victims

    def test_rejects_more_than_available(self):
        cluster = Cluster([R])
        cluster.boot("raspberry", 1, 0.0)[0].complete_boot(16.0)
        with pytest.raises(MachineError):
            cluster.pick_shutdown_victims("raspberry", 2)
