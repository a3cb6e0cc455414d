"""Unit tests for the load balancer's marginal-cost fill."""

import pytest

from repro.core.profiles import TABLE_I
from repro.sim.cluster import Cluster
from repro.sim.loadbalancer import balance


@pytest.fixture()
def machines():
    cluster = Cluster([TABLE_I["paravance"], TABLE_I["raspberry"]])
    out = []
    for arch, n in (("paravance", 1), ("raspberry", 2)):
        for m in cluster.boot(arch, n, 0.0):
            m.complete_boot(0.0)
            out.append(m)
    return out  # capacity 1331 + 9 + 9 = 1349


class TestValidation:
    def test_negative_rate(self, machines):
        with pytest.raises(ValueError):
            balance(-1.0, machines)


class TestEfficientStrategy:
    def test_fills_cheapest_slope_first(self, machines):
        # raspberry slope 0.0667 < paravance slope 0.0981
        a = balance(12.0, machines)
        rasp_share = sum(v for k, v in a.shares.items() if k.startswith("raspberry"))
        assert rasp_share == pytest.approx(12.0 if 12.0 <= 18 else 18)
        assert a.unserved == 0.0

    def test_overflow_to_next_machine(self, machines):
        a = balance(100.0, machines)
        par_share = sum(v for k, v in a.shares.items() if k.startswith("paravance"))
        assert par_share == pytest.approx(100.0 - 18.0)

    def test_saturation_reports_unserved(self, machines):
        a = balance(2000.0, machines)
        assert a.served == pytest.approx(1349.0)
        assert a.unserved == pytest.approx(651.0)

    def test_zero_rate(self, machines):
        a = balance(0.0, machines)
        assert all(v == 0.0 for v in a.shares.values())

    def test_no_machines(self):
        a = balance(10.0, [])
        assert a.served == 0.0 and a.unserved == 10.0


class TestApply:
    """The reference replay applies each share to its machine."""

    @staticmethod
    def _apply(rate, machines, now):
        a = balance(rate, machines)
        for m in machines:
            m.assign_load(a.shares[m.machine_id], now)

    def test_apply_pushes_loads_to_machines(self, machines):
        self._apply(50.0, machines, now=1.0)
        assert sum(m.load for m in machines) == pytest.approx(50.0)

    def test_power_matches_combination_model(self, machines):
        """The fill realises exactly the analytical combination power
        used by the fast path."""
        from repro.core.combination import Combination
        from repro.sim.energy import combination_power

        self._apply(321.0, machines, now=0.0)
        actual = sum(m.power_draw for m in machines)
        combo = Combination.of(
            {TABLE_I["paravance"]: 1, TABLE_I["raspberry"]: 2}
        )
        assert actual == pytest.approx(combination_power(combo, 321.0))
