"""Unit tests for the pro-active BML scheduler."""

import numpy as np
import pytest

from repro.core.combination import Combination
from repro.core.prediction import LookAheadMaxPredictor, PerfectPredictor
from repro.core.profiles import TABLE_I
from repro.core.scheduler import BMLScheduler
from repro.workload.trace import LoadTrace

P = TABLE_I["paravance"]
C = TABLE_I["chromebook"]
R = TABLE_I["raspberry"]


def trace_of(values):
    return LoadTrace(np.asarray(values, dtype=float))


class TestSteadyState:
    def test_constant_load_never_reconfigures(self, infra):
        plan = BMLScheduler(infra).plan(trace_of([100.0] * 2000))
        assert plan.n_reconfigurations == 0
        assert len(plan.segments) == 1

    def test_initial_combination_matches_first_prediction(self, infra):
        plan = BMLScheduler(infra).plan(trace_of([100.0] * 100))
        assert plan.initial == infra.combination_for(100.0)

    def test_fluctuation_within_same_combination_ignored(self, infra):
        # 28 and 33 req/s both need exactly one chromebook
        values = [28.0, 33.0] * 500
        plan = BMLScheduler(infra, predictor=PerfectPredictor()).plan(
            trace_of(values)
        )
        assert plan.n_reconfigurations == 0


class TestStepChanges:
    def test_step_up_decided_window_early(self, infra):
        # load jumps from 5 to 1000 at t=1000; with a 378 s look-ahead the
        # decision must fire at t = 1000 - 378 + 1 = 623.
        values = [5.0] * 1000 + [1000.0] * 1000
        sched = BMLScheduler(infra, predictor=LookAheadMaxPredictor(378))
        plan = sched.plan(trace_of(values))
        assert plan.n_reconfigurations == 1
        recon = plan.reconfigurations[0]
        assert recon.decided_at == 623
        # the new big machine is ready before the step arrives
        assert recon.decided_at + recon.boot_duration <= 1000

    def test_step_down_decided_at_the_step(self, infra):
        values = [1000.0] * 1000 + [5.0] * 1000
        sched = BMLScheduler(infra, predictor=LookAheadMaxPredictor(378))
        plan = sched.plan(trace_of(values))
        assert plan.n_reconfigurations == 1
        # look-ahead max stays at 1000 until the window no longer sees it
        assert plan.reconfigurations[0].decided_at == 1000

    def test_no_decisions_inside_blocking_window(self, infra):
        rng = np.random.default_rng(0)
        values = rng.uniform(1.0, 2000.0, size=5000)
        plan = BMLScheduler(infra).plan(trace_of(values))
        for a, b in zip(plan.reconfigurations[:-1], plan.reconfigurations[1:]):
            assert b.decided_at >= a.completes_at

    def test_spike_shorter_than_window_still_provisioned(self, infra):
        values = [5.0] * 2000
        values[1500] = 800.0  # 1-second spike
        plan = BMLScheduler(infra, predictor=LookAheadMaxPredictor(378)).plan(
            trace_of(values)
        )
        ups = [r for r in plan.reconfigurations if r.after.count_of("paravance")]
        assert ups, "the spike must trigger a Big boot"
        assert ups[0].decided_at == 1500 - 378 + 1


class TestExplicitInitial:
    def test_initial_differs_forces_immediate_decision(self, infra):
        initial = Combination.of({P: 2})
        sched = BMLScheduler(infra, initial=initial)
        plan = sched.plan(trace_of([50.0] * 3000))
        assert plan.initial == initial
        assert plan.n_reconfigurations == 1
        assert plan.reconfigurations[0].decided_at == 0

    def test_initial_equal_no_decision(self, infra):
        initial = infra.combination_for(50.0)
        plan = BMLScheduler(infra, initial=initial).plan(trace_of([50.0] * 100))
        assert plan.n_reconfigurations == 0


class TestPlanDetails:
    def test_outcome_exposes_predictions_and_table(self, infra, short_trace):
        out = BMLScheduler(infra).plan_detailed(short_trace)
        assert len(out.predictions) == len(short_trace)
        assert out.table.max_rate >= short_trace.peak
        assert out.plan.horizon == len(short_trace)

    def test_one_transition_derived_per_machine_delta(self, infra, monkeypatch):
        """Pairs with equal machine deltas share one derived transition:
        one Little is started and stopped next to a Medium and next to a
        Big, and the plan derives no transition of its own."""
        import repro.core.reconfiguration as reconfiguration
        import repro.core.scheduler as scheduler
        from plan_references import _plan_reference

        levels = [10.0, 40.0, 10.0, 1000.0, 1335.0, 1000.0] * 2
        trace = trace_of(np.repeat(levels, 600))
        sched = BMLScheduler(infra, predictor=PerfectPredictor())
        derive = reconfiguration.transition
        calls = []

        def counted(current, target):
            calls.append((current, target))
            return derive(current, target)

        monkeypatch.setattr(scheduler, "transition", counted)
        monkeypatch.setattr(reconfiguration, "transition", counted)
        plan = sched.plan_detailed(trace).plan
        monkeypatch.undo()
        recons = plan.reconfigurations
        deltas = {tuple(r.before.diff(r.after).items()) for r in recons}
        assert len(deltas) < len({(r.before, r.after) for r in recons})
        assert len(calls) == len(deltas)
        want = _plan_reference(sched, trace).plan
        assert plan.segments == want.segments
        assert recons == want.reconfigurations

    def test_plan_serves_every_prediction_at_decision(self, infra, short_trace):
        out = BMLScheduler(infra).plan_detailed(short_trace)
        for r in out.plan.reconfigurations:
            assert r.after.capacity >= out.predictions[r.decided_at] - 1e-9

    def test_ideal_method_uses_fewer_or_equal_energy_tables(self, infra, short_trace):
        greedy_plan = BMLScheduler(infra, method="greedy").plan(short_trace)
        ideal_plan = BMLScheduler(infra, method="ideal").plan(short_trace)
        assert ideal_plan.horizon == greedy_plan.horizon


class TestWindowSizes:
    @pytest.mark.parametrize("window", [1, 60, 378, 1000])
    def test_plans_valid_for_any_window(self, infra, short_trace, window):
        plan = BMLScheduler(
            infra, predictor=LookAheadMaxPredictor(window)
        ).plan(short_trace)
        t = 0
        for seg in plan.segments:
            assert seg.t_start == t
            t = seg.t_end
        assert t == len(short_trace)

    def test_larger_windows_do_not_decide_later_on_rises(self, infra):
        values = [5.0] * 1500 + [1200.0] * 1500
        t_small = BMLScheduler(
            infra, predictor=LookAheadMaxPredictor(60)
        ).plan(trace_of(values)).reconfigurations[0].decided_at
        t_large = BMLScheduler(
            infra, predictor=LookAheadMaxPredictor(600)
        ).plan(trace_of(values)).reconfigurations[0].decided_at
        assert t_large <= t_small


class TestInventory:
    def test_capacity_clamped_and_qos_measured(self, infra):
        from repro.sim.datacenter import execute_plan

        values = np.concatenate([np.full(1000, 100.0), np.full(1000, 3000.0)])
        trace = trace_of(values)
        inventory = {"paravance": 1, "chromebook": 5, "raspberry": 5}
        sched = BMLScheduler(infra, inventory=inventory)
        plan = sched.plan(trace)
        for seg in plan.segments:
            for name, cap in inventory.items():
                assert seg.serving.count_of(name) <= cap
        res = execute_plan(plan, trace)
        assert res.qos().violation_seconds >= 900  # the plateau is unservable

    def test_generous_inventory_equals_unbounded(self, infra, short_trace):
        generous = {"paravance": 100, "chromebook": 1000, "raspberry": 1000}
        a = BMLScheduler(infra).plan(short_trace)
        b = BMLScheduler(infra, inventory=generous).plan(short_trace)
        assert a.n_reconfigurations == b.n_reconfigurations
        assert a.final == b.final


class TestTableCache:
    """Repeated plan() calls must reuse the infrastructure's table cache."""

    def _fresh_infra(self):
        from repro.core.bml import design
        from repro.core.profiles import table_i_profiles

        return design(table_i_profiles())

    def test_repeated_plan_hits_cache(self, short_trace):
        infra = self._fresh_infra()
        sched = BMLScheduler(infra)
        out1 = sched.plan_detailed(short_trace)
        assert infra.table_cache_misses == 1
        out2 = sched.plan_detailed(short_trace)
        # Second call: zero table-construction work, same table object.
        assert infra.table_cache_misses == 1
        assert infra.table_cache_hits >= 1
        assert out2.table is out1.table
        assert out1.plan.final == out2.plan.final

    def test_repeated_inventory_plan_hits_cache(self, short_trace):
        infra = self._fresh_infra()
        inventory = {"paravance": 4, "chromebook": 50, "raspberry": 50}
        sched = BMLScheduler(infra, inventory=inventory)
        sched.plan(short_trace)
        misses = infra.table_cache_misses
        sched.plan(short_trace)
        assert infra.table_cache_misses == misses
        assert infra.table_cache_hits >= 1

    def test_repeated_app_spec_plan_hits_cache(self, short_trace):
        from repro.sim.application import ApplicationSpec

        infra = self._fresh_infra()
        spec = ApplicationSpec(min_instances=2)
        sched = BMLScheduler(infra, app_spec=spec)
        plan1 = sched.plan(short_trace)
        misses = infra.table_cache_misses
        plan2 = sched.plan(short_trace)
        assert infra.table_cache_misses == misses
        assert infra.table_cache_hits >= 1
        assert plan1.final == plan2.final
        for seg in plan2.segments:
            assert not seg.serving or seg.serving.total_nodes >= 2

    def test_smaller_trace_reuses_larger_table(self, short_trace):
        infra = self._fresh_infra()
        sched = BMLScheduler(infra)
        sched.plan(short_trace)
        misses = infra.table_cache_misses
        sched.plan(short_trace[: len(short_trace) // 2])
        assert infra.table_cache_misses == misses  # monotone reuse


class TestRowIds:
    def test_row_ids_change_points_match_unique(self, infra, short_trace):
        from repro.core.scheduler import _row_ids

        table = infra.table(float(short_trace.peak))
        counts = table.counts_for(short_trace.values)
        ids = _row_ids(counts)
        _, ref = np.unique(counts, axis=0, return_inverse=True)
        ref = ref.reshape(-1)
        assert np.array_equal(
            np.flatnonzero(ids[1:] != ids[:-1]),
            np.flatnonzero(ref[1:] != ref[:-1]),
        )

    @pytest.mark.parametrize("truncate", [False, True])
    def test_decision_ids_change_points_match_unique(
        self, infra, short_trace, truncate
    ):
        from repro.core.scheduler import _decision_ids

        table = infra.table(float(short_trace.peak))
        rates = short_trace.values
        if truncate:
            table = table.truncated(len(table) // 2)
            rates = np.minimum(rates, table.max_rate)
        cid, changes, idx = _decision_ids(table, rates)
        counts = table.counts_for(rates)
        _, ref = np.unique(counts, axis=0, return_inverse=True)
        ref = ref.reshape(-1)
        assert np.array_equal(changes, np.flatnonzero(ref[1:] != ref[:-1]) + 1)
        assert np.array_equal(table.counts_array[idx], counts)

    @staticmethod
    def _same_partition(ids, counts):
        """Ids equal exactly when rows are equal: the (id, row) pairs
        are as many as the distinct ids and as the distinct rows."""
        _, rows = np.unique(counts, axis=0, return_inverse=True)
        pairs = np.unique(np.stack([ids, rows.reshape(-1)], axis=1), axis=0)
        n_rows = len(np.unique(counts, axis=0))
        return len(pairs) == len(np.unique(ids)) == n_rows

    def test_table_i_ids_are_int32(self, infra, short_trace):
        from repro.core.scheduler import _decision_ids, _row_ids

        table = infra.table(float(short_trace.peak))
        ids = _row_ids(table.counts_array)
        assert ids.dtype == np.int32
        assert self._same_partition(ids, table.counts_array)
        cid, _, _ = _decision_ids(table, short_trace.values)
        assert cid.dtype == np.int32
        assert np.array_equal(
            cid, ids[table.clipped_index(short_trace.values)[0]]
        )

    def test_ids_past_2_31_stay_int64(self):
        from repro.core.scheduler import _row_ids

        # Two columns spanning 2**16 + 1 values each: the key needs more
        # than 2**31 values, though every count on its own is small.
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 2**16 + 1, size=(500, 2))
        counts[:2] = [[0, 0], [2**16, 2**16]]
        counts = np.concatenate([counts, counts[::7]])  # repeated rows
        ids = _row_ids(counts)
        assert ids.dtype == np.int64
        assert int(ids.max()) >= 2**31
        assert self._same_partition(ids, counts)

    def test_out_of_table_rate_marks_sentinel_or_raises(self, infra):
        from repro.core.combination import CombinationError
        from repro.core.scheduler import _decision_ids

        table = infra.table(3000.0).truncated(100)
        rates = np.array([10.0, 50.0, 5000.0, 20.0])
        cid, _, _ = _decision_ids(table, rates, strict=False)
        assert cid[2] == -1 and (cid[[0, 1, 3]] >= 0).all()
        with pytest.raises(CombinationError) as want:
            table.counts_for(rates)
        with pytest.raises(CombinationError) as got:
            _decision_ids(table, rates)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("planner", ["bml", "transition-aware"])
    def test_out_of_table_rate_raises_in_planner(self, infra, short_trace, planner):
        """A table too small for the predictions fails like ``counts_for``."""
        from types import SimpleNamespace

        from repro.core.adaptive import TransitionAwareScheduler
        from repro.core.combination import CombinationError

        small = infra.table(float(short_trace.peak)).truncated(30)
        stub = SimpleNamespace(table=lambda *args, **kwargs: small)
        cls = BMLScheduler if planner == "bml" else TransitionAwareScheduler
        sched = cls(stub)
        with pytest.raises(CombinationError) as want:
            small.counts_for(sched.predictor.series(short_trace))
        with pytest.raises(CombinationError) as got:
            sched.plan(short_trace)
        assert str(got.value) == str(want.value)
