"""Unit tests for simulation result accounting."""

import numpy as np
import pytest

from repro.sim.results import SimulationResult
from repro.workload.trace import SECONDS_PER_DAY, LoadTrace


def result(power, unserved=None, timestep=1.0, **kw):
    power = np.asarray(power, dtype=float)
    if unserved is None:
        unserved = np.zeros_like(power)
    return SimulationResult(
        scenario="test",
        trace_name="t",
        timestep=timestep,
        power=power,
        unserved=np.asarray(unserved, dtype=float),
        **kw,
    )


class TestEnergy:
    def test_total_energy(self):
        r = result([10.0, 20.0, 30.0])
        assert r.total_energy == pytest.approx(60.0)
        assert r.total_energy_kwh == pytest.approx(60.0 / 3.6e6)

    def test_mean_power(self):
        assert result([10.0, 30.0]).mean_power == pytest.approx(20.0)

    def test_timestep_scales_energy(self):
        assert result([10.0], timestep=60.0).total_energy == pytest.approx(600.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            result([1.0], unserved=[0.0, 0.0])
        with pytest.raises(ValueError):
            result([1.0], timestep=0.0)


class TestPerDay:
    def test_full_days(self):
        power = np.concatenate(
            [np.full(SECONDS_PER_DAY, 1.0), np.full(SECONDS_PER_DAY, 2.0)]
        )
        daily = result(power).per_day_energy()
        assert np.allclose(daily, [SECONDS_PER_DAY, 2 * SECONDS_PER_DAY])

    def test_partial_last_day(self):
        power = np.full(SECONDS_PER_DAY + 100, 1.0)
        daily = result(power).per_day_energy()
        assert len(daily) == 2
        assert daily[1] == pytest.approx(100.0)

    def test_kwh_variant(self):
        power = np.full(SECONDS_PER_DAY, 1000.0)
        assert result(power).per_day_energy_kwh()[0] == pytest.approx(24.0)


class TestQoS:
    def test_perfect_service(self):
        qos = result([1.0, 1.0]).qos()
        assert qos.violation_seconds == 0
        assert qos.unserved_demand == 0.0

    def test_violations_counted(self):
        r = result([1.0] * 4, unserved=[0.0, 5.0, 3.0, 0.0])
        qos = r.qos()
        assert qos.violation_seconds == 2
        assert qos.unserved_demand == pytest.approx(8.0)
        assert qos.worst_deficit == 5.0

    def test_served_fraction_with_trace(self):
        trace = LoadTrace(np.array([10.0, 10.0]))
        r = result([1.0, 1.0], unserved=[0.0, 2.0])
        assert r.qos(trace).served_fraction == pytest.approx(1 - 2 / 20)


class TestComparisons:
    def test_overhead_vs(self):
        a = result(np.full(SECONDS_PER_DAY, 2.0))
        b = result(np.full(SECONDS_PER_DAY, 1.0))
        assert a.overhead_vs(b)[0] == pytest.approx(1.0)

    def test_overhead_requires_same_days(self):
        a = result(np.full(SECONDS_PER_DAY, 1.0))
        b = result(np.full(2 * SECONDS_PER_DAY, 1.0))
        with pytest.raises(ValueError):
            a.overhead_vs(b)
