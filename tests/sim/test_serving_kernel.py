"""Serving-set kernels and the deferred array ledger.

The composite kernel collapses a steady segment's balance/draw chain to
a handful of vector ops over the window's rates; the deferred
ledger buffers per-machine contributions and settles them in one cumsum
pass.  Both must reproduce the per-second scalar chain bit-for-bit.
"""

import numpy as np
import pytest

from repro.sim.energy import EnergyMeter
from repro.sim.loadbalancer import (
    LoadBalancer,
    ServingSetKernel,
    serving_set_kernel,
)
from repro.sim.machine import Machine, MachineState

pytestmark = pytest.mark.quick


@pytest.fixture()
def machines(toy_profiles):
    big, little = toy_profiles
    meter = EnergyMeter()
    out = []
    for i, prof in enumerate([big, little, little]):
        m = Machine(machine_id=f"m{i}", profile=prof, meter=meter)
        m.state = MachineState.ON
        out.append(m)
    return out


class TestKernelEquivalence:
    """kernel.evaluate == per-second LoadBalancer.balance + draws, bit for bit."""

    @pytest.mark.parametrize("strategy", ["efficient", "proportional"])
    def test_matches_balance_series(self, machines, strategy):
        rng = np.random.default_rng(7)
        rates = np.round(rng.uniform(0.0, 150.0, size=200), 1)  # repeats
        lb = LoadBalancer(strategy)
        kernel = serving_set_kernel(strategy, machines)
        window = kernel.evaluate(rates)
        scalar = [lb.balance(float(r), machines) for r in rates]
        assert np.array_equal(window.unserved, [a.unserved for a in scalar])
        for i, m in enumerate(machines):
            shares = np.array([a.shares[m.machine_id] for a in scalar])
            assert np.array_equal(window.loads[i], shares)
            assert np.array_equal(
                window.draws[i],
                m.profile.idle_power + m.profile.slope * shares,
            )

    def test_negative_rates_rejected_unless_prevalidated(self, machines):
        kernel = serving_set_kernel("efficient", machines)
        with pytest.raises(ValueError):
            kernel.evaluate(np.array([1.0, -0.5]))


class TestDeferredLedger:
    """Pending streams built by record_batch_windows, the two-phase
    replay's journal settle: lazy flushing and its guards."""

    @staticmethod
    def _settle_windows(meter, windows):
        """Journal ``(powers, t_start)`` windows of machine ``m`` and
        settle them into pending streams."""
        meter.begin_batch()
        for j in range(len(windows)):
            meter.batch_mark(j)

        def resolve(j):
            powers, t0 = windows[j]
            return ("m",), (powers,), None, 0, len(powers), t0

        meter.record_batch_windows(resolve)

    def _scalar_and_deferred(self):
        scalar, deferred = EnergyMeter(), EnergyMeter()
        for m in (scalar, deferred):
            m.set_power("m", 12.5, 0.0)
        return scalar, deferred

    @staticmethod
    def _per_second(meter, powers, t0):
        for k, p in enumerate(powers):
            meter.set_power("m", float(p), t0 + k)

    def test_set_power_interleaves_without_flush(self):
        scalar, deferred = self._scalar_and_deferred()
        powers = np.array([10.0, 20.0, 30.0])
        self._per_second(scalar, powers, 5)
        self._settle_windows(deferred, [(powers, 5)])
        # a transition at a fractional time closes the open second
        for m in (scalar, deferred):
            m.set_power("m", 99.0, 8.75)
        assert deferred._pending  # still buffered, not settled
        self._per_second(scalar, powers * 2, 12)
        self._settle_windows(deferred, [(powers * 2, 12)])
        scalar.finalize(20.0)
        deferred.finalize(20.0)
        assert scalar._totals == deferred._totals

    def test_queries_flush_on_demand(self):
        scalar, deferred = self._scalar_and_deferred()
        powers = np.array([50.0, 60.0])
        self._per_second(scalar, powers, 2)
        self._settle_windows(deferred, [(powers, 2)])
        assert deferred._pending
        assert deferred.energy_of("m") == scalar.energy_of("m")
        assert not deferred._pending
        self._settle_windows(deferred, [(powers, 4)])
        self._per_second(scalar, powers, 4)
        assert deferred._pending
        assert deferred.total_energy == scalar.total_energy
        assert not deferred._pending

    def test_empty_window_is_a_no_op(self):
        meter = EnergyMeter()
        meter.set_power("m", 5.0, 0.0)
        self._settle_windows(meter, [(np.array([]), 3)])
        meter.finalize(4.0)
        assert meter.energy_of("m") == 5.0 * 4.0

    def test_time_going_backwards_rejected(self):
        meter = EnergyMeter()
        meter.set_power("m", 5.0, 0.0)
        self._settle_windows(meter, [(np.array([1.0, 2.0]), 10)])
        with pytest.raises(ValueError, match="backwards"):
            self._settle_windows(meter, [(np.array([1.0]), 3)])
