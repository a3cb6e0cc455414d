"""Cross-validation of the event-driven simulator against the fast path.

The two implementations share nothing but the combination table and the
predictor; agreement of their per-second power series is the strongest
correctness evidence in the suite.
"""

import numpy as np
import pytest

from repro.core.prediction import LookAheadMaxPredictor
from repro.core.reconfiguration import ReconfigurationLog
from repro.core.scheduler import BMLScheduler
from repro.sim.datacenter import execute_plan
from repro.sim.loop import EventDrivenReplay
from repro.workload.trace import LoadTrace


def run_both(infra, trace, window=378):
    pred = LookAheadMaxPredictor(window)
    outcome = BMLScheduler(infra, predictor=pred).plan_detailed(trace)
    fast = execute_plan(outcome.plan, trace, "fast")
    replay = EventDrivenReplay(outcome.table, trace, predictor=pred)
    slow = replay.run()
    return fast, slow, replay


class TestCrossValidation:
    def test_identical_power_series_on_bursty_trace(self, infra, short_trace):
        fast, slow, _ = run_both(infra, short_trace)
        assert np.allclose(fast.power, slow.power, atol=1e-9)
        assert fast.total_energy == pytest.approx(slow.total_energy)

    def test_identical_unserved_series(self, infra, short_trace):
        fast, slow, _ = run_both(infra, short_trace)
        assert np.allclose(fast.unserved, slow.unserved, atol=1e-9)

    def test_same_reconfiguration_log(self, infra, short_trace):
        fast, slow, _ = run_both(infra, short_trace)
        assert fast.n_reconfigurations == slow.n_reconfigurations
        for a, b in zip(fast.reconfigurations, slow.reconfigurations):
            assert a.decided_at == b.decided_at
            assert a.before == b.before and a.after == b.after
            assert a.on_energy == pytest.approx(b.on_energy)
            assert a.off_energy == pytest.approx(b.off_energy)

    def test_meter_ledger_matches_power_integral(self, infra, short_trace):
        _, slow, _ = run_both(infra, short_trace)
        assert slow.meta["meter_energy_j"] == pytest.approx(
            slow.total_energy, rel=1e-9
        )

    def test_small_window_still_agrees(self, infra, short_trace):
        fast, slow, _ = run_both(infra, short_trace[:1800], window=30)
        assert np.allclose(fast.power, slow.power, atol=1e-9)


class TestMachineLevelStats:
    def test_boot_counters_match_plan(self, infra, short_trace):
        fast, _, replay = run_both(infra, short_trace)
        started = {}
        for r in fast.reconfigurations:
            for name, delta in r.before.diff(r.after).items():
                if delta > 0:
                    started[name] = started.get(name, 0) + delta
        assert replay.stats.boots == started

    def test_migrations_happen_on_swaps(self, infra):
        # force a swap: littles -> one big
        values = np.concatenate([np.full(1000, 8.0), np.full(1000, 1200.0)])
        trace = LoadTrace(values)
        _, slow, replay = run_both(infra, trace)
        assert replay.stats.migrations >= 1

    def test_peak_machines_on_recorded(self, infra, short_trace):
        _, _, replay = run_both(infra, short_trace[:900])
        assert replay.stats.peak_machines_on >= 1


class TestReconfigurationLog:
    @pytest.mark.parametrize("engine", ["reference", "twophase"])
    def test_log_interns_like_of(self, infra, short_trace, engine):
        """The replay builds its log from the ``after`` column alone;
        rows, ``before``/``after`` columns and ``combos`` objects equal
        ``ReconfigurationLog.of`` over its per-decision tuples."""
        replay = EventDrivenReplay(infra.table(short_trace.peak), short_trace)
        log = replay.run(engine=engine).reconfigurations
        want = ReconfigurationLog.of(replay._events)
        assert len(log) > 1
        assert log == want
        assert np.array_equal(log.before, want.before)
        assert np.array_equal(log.after, want.after)
        assert len(log.combos) == len(want.combos)
        assert all(a is b for a, b in zip(log.combos, want.combos))

    def test_empty_log(self, infra):
        trace = LoadTrace(np.full(600, 300.0))
        result = EventDrivenReplay(infra.table(400.0), trace).run()
        assert len(result.reconfigurations) == 0
        assert result.reconfigurations.combos == ()


class TestValidation:
    def test_requires_one_hz_trace(self, infra):
        trace = LoadTrace(np.full(10, 5.0), timestep=60.0)
        with pytest.raises(ValueError):
            EventDrivenReplay(infra.table(10.0), trace)


class TestSingleUse:
    @pytest.mark.parametrize("engine", ("reference", "twophase"))
    def test_second_run_raises(self, infra, short_trace, engine):
        replay = EventDrivenReplay(
            infra.table(3000.0), short_trace[:1800],
            predictor=LookAheadMaxPredictor(378),
        )
        replay.run(engine=engine)
        with pytest.raises(RuntimeError, match="single-use"):
            replay.run(engine=engine)

    def test_unknown_engine_does_not_use_up_the_replay(
        self, infra, short_trace
    ):
        replay = EventDrivenReplay(
            infra.table(3000.0), short_trace[:1800],
            predictor=LookAheadMaxPredictor(378),
        )
        with pytest.raises(ValueError, match="unknown engine"):
            replay.run(engine="warp")
        assert replay.run().meta["engine"] == "twophase"


class TestInventoryLimits:
    def test_bounded_cluster_raises_when_exhausted(self, infra):
        """The event-driven replay surfaces inventory exhaustion loudly
        (the planner must be given the same bounds to avoid it)."""
        from repro.sim.cluster import InventoryError

        values = np.concatenate([np.full(600, 8.0), np.full(600, 2000.0)])
        trace = LoadTrace(values)
        pred = LookAheadMaxPredictor(378)
        table = infra.table(2000.0)
        replay = EventDrivenReplay(
            table, trace, predictor=pred, inventory={"paravance": 0,
                                                     "chromebook": 2,
                                                     "raspberry": 2},
        )
        with pytest.raises(InventoryError):
            replay.run()
