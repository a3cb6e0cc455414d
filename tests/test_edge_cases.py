"""Cross-cutting edge cases that don't fit a single module's test file."""

import numpy as np
import pytest

from repro.core.bml import design
from repro.core.prediction import LookAheadMaxPredictor
from repro.core.profiles import table_i_profiles
from repro.core.scheduler import BMLScheduler
from repro.sim.datacenter import execute_plan
from repro.sim.loop import EventDrivenReplay
from repro.workload.trace import LoadTrace


class TestFineResolution:
    def test_design_at_half_unit_resolution(self):
        """The thresholds live on the metric grid; refining it must keep
        them within one coarse grid step of the published values."""
        infra = design(table_i_profiles(), resolution=0.5)
        assert infra.thresholds["raspberry"] == 0.5
        assert abs(infra.thresholds["chromebook"] - 10.0) <= 1.0
        assert abs(infra.thresholds["paravance"] - 529.0) <= 1.0

    def test_fine_grid_combination_covers_fractional_rate(self):
        infra = design(table_i_profiles(), resolution=0.5)
        combo = infra.combination_for(8.5)
        assert combo.capacity >= 8.5
        assert combo.counts == {"raspberry": 1}


class TestNonUnitTimestep:
    def test_per_day_energy_with_minute_samples(self):
        from repro.sim.results import SimulationResult

        power = np.full(1440, 60.0)  # one day at 1-minute samples
        res = SimulationResult(
            scenario="x", trace_name="t", timestep=60.0,
            power=power, unserved=np.zeros_like(power),
        )
        assert len(res.per_day_energy()) == 1
        assert res.per_day_energy()[0] == pytest.approx(60.0 * 86400)

    def test_trace_day_views_with_minute_samples(self):
        trace = LoadTrace(np.arange(2880.0), timestep=60.0)
        assert trace.n_days == 2
        assert len(trace.day(0)) == 1440


class TestMigrationLatency:
    def test_zero_migration_time_matches_fast_path(self, infra):
        """Instances serve from their deployment second, so the event
        replay draws what the plan integration draws."""
        values = np.concatenate([np.full(500, 8.0), np.full(700, 700.0)])
        trace = LoadTrace(values)
        pred = LookAheadMaxPredictor(378)
        outcome = BMLScheduler(infra, predictor=pred).plan_detailed(trace)
        fast = execute_plan(outcome.plan, trace)
        slow = EventDrivenReplay(outcome.table, trace, predictor=pred).run()
        assert np.allclose(fast.power, slow.power, atol=1e-9)


class TestDegenerateWorkloads:
    def test_all_zero_load(self, infra):
        trace = LoadTrace(np.zeros(1000))
        plan = BMLScheduler(infra).plan(trace)
        res = execute_plan(plan, trace)
        assert res.total_energy == 0.0  # nothing on, nothing drawn
        assert plan.initial.total_nodes == 0

    def test_single_sample_trace(self, infra):
        trace = LoadTrace(np.array([42.0]))
        plan = BMLScheduler(infra).plan(trace)
        res = execute_plan(plan, trace)
        assert res.qos().violation_seconds == 0
        assert len(plan.segments) == 1

    def test_peak_exactly_at_big_capacity_boundary(self, infra):
        trace = LoadTrace(np.full(500, 1331.0))
        plan = BMLScheduler(infra).plan(trace)
        assert plan.initial.counts == {"paravance": 1}
        trace2 = LoadTrace(np.full(500, 1331.0001))
        plan2 = BMLScheduler(infra).plan(trace2)
        assert plan2.initial.capacity > 1331.0

    def test_impulse_train(self, infra):
        """Pathological 0/peak alternation: the look-ahead max collapses
        it to a constant prediction -> exactly zero reconfigurations."""
        values = np.zeros(4000)
        values[::200] = 900.0
        trace = LoadTrace(values)
        plan = BMLScheduler(infra, predictor=LookAheadMaxPredictor(378)).plan(trace)
        assert plan.n_reconfigurations <= 1  # tail may scale down once
        res = execute_plan(plan, trace)
        assert res.qos().violation_seconds == 0


class TestSchedulerTableReuse:
    def test_infra_table_cache_shared_between_runs(self, infra):
        t1 = LoadTrace(np.full(100, 700.0))
        t2 = LoadTrace(np.full(100, 700.0))
        s = BMLScheduler(infra)
        out1 = s.plan_detailed(t1)
        out2 = s.plan_detailed(t2)
        assert out1.table is out2.table  # cached by (max_rate, method)
