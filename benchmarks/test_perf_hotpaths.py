"""Performance benchmarks for the library's hot paths.

Not a paper artifact — these guard the engineering that makes the 87-day
1 Hz replay practical: the sliding-maximum predictor, combination-table
construction, vectorised power evaluation, the scheduler's jump loop, the
plan executor and the per-second lower bound.  Regressions here turn the
Fig. 5 benchmark from seconds into hours (a naive per-second Python loop
over 7.5 M samples).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.bml import design
from repro.core.combination import CombinationTable, build_table
from repro.core.prediction import LookAheadMaxPredictor
from repro.core.profiles import table_i_profiles
from repro.core.scheduler import BMLScheduler, DecisionWalk, _decision_ids
from repro.sim.datacenter import execute_plan, lower_bound_result
from repro.sim.energy import combination_power
from repro.sim.loop import EventDrivenReplay
from repro.workload.sliding import lookahead_max, trailing_max
from repro.workload.wc98format import read_trace, write_records
from repro.workload.worldcup import WorldCupSynthesizer

# The per-rate reference construction lives with the tests; a run of
# ``pytest benchmarks/`` alone never loads tests/conftest.py.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from table_references import _greedy_combos_reference  # noqa: E402


@pytest.fixture(scope="module")
def week_trace():
    return WorldCupSynthesizer(n_days=7, seed=13).build()


@pytest.fixture(scope="module")
def day_trace():
    """One day at 1 Hz — the event-driven replay benchmark scale."""
    return WorldCupSynthesizer(n_days=1, seed=321, peak_rate=3000).build()


@pytest.fixture(scope="module")
def wc98_slice(tmp_path_factory):
    """A 1.5 h archive-format slice, round-tripped through the WC98 reader.

    Synthetic request counts are expanded to per-request timestamps and
    written in the archive's 20-byte binary format, then aggregated back —
    the exact pipeline a real WC98 day would follow.
    """
    full = WorldCupSynthesizer(n_days=1, seed=98, peak_rate=2500).build()
    counts = full.values[12 * 3600 : 12 * 3600 + 5400].astype(np.int64)
    timestamps = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    path = tmp_path_factory.mktemp("wc98") / "wc_day66_1.bin"
    write_records(path, timestamps)
    return read_trace(path, name="wc98-slice")


def _bench_replay(benchmark, infra, trace, engine, rounds):
    pred = LookAheadMaxPredictor(378)
    table = infra.table(float(np.max(trace.values)))

    def setup():
        return (EventDrivenReplay(table, trace, predictor=pred),), {}

    result = benchmark.pedantic(
        lambda replay: replay.run(engine=engine), setup=setup, rounds=rounds
    )
    assert result.meta["engine"] == engine
    assert result.total_energy > 0
    return result


@pytest.mark.benchmark(group="perf")
def test_perf_sliding_max_week(benchmark, week_trace):
    """378 s look-ahead maximum over 604 800 samples."""
    out = benchmark(lookahead_max, week_trace.values, 378)
    assert len(out) == len(week_trace)
    assert np.all(out >= week_trace.values)


@pytest.mark.benchmark(group="perf")
def test_perf_table_construction(benchmark, infra):
    """Greedy combination table for rates 0..5000 (the Fig. 5 table)."""
    table = benchmark(
        build_table, infra.ordered, infra.thresholds, 5000.0, 1.0, "greedy"
    )
    assert table.max_rate == 5000.0


@pytest.mark.benchmark(group="perf")
def test_perf_table_construction_reference(benchmark, infra):
    """The seed's per-rate construction, kept for before/after comparison.

    One greedy_combination call per grid rate plus per-combo scalar power
    evaluation — the path build_table replaced with the run-length numpy
    kernels.  The vectorized/reference ratio in the benchmark JSON *is*
    the speedup measurement.
    """

    def seed_style_build():
        combos = _greedy_combos_reference(
            infra.ordered, infra.thresholds, 5000, 1.0
        )
        power = np.array([c.power(i * 1.0) for i, c in enumerate(combos)])
        return combos, power

    combos, power = benchmark(seed_style_build)
    fast = build_table(infra.ordered, infra.thresholds, 5000.0, 1.0, "greedy")
    assert np.array_equal(fast.power_array, power)  # bit-identical tables


@pytest.mark.benchmark(group="perf")
def test_perf_table_construction_50k(benchmark, infra):
    """Greedy table for rates 0..50 000 — the scale headroom case."""
    table = benchmark(
        build_table, infra.ordered, infra.thresholds, 50_000.0, 1.0, "greedy"
    )
    assert table.max_rate == 50_000.0


@pytest.mark.benchmark(group="perf")
def test_perf_ideal_table_construction(benchmark, infra):
    """Exact-DP table (numpy cover kernel + Gil-Werman sliding minimum)."""
    table = benchmark(
        build_table, infra.ordered, infra.thresholds, 5000.0, 1.0, "ideal"
    )
    assert table.max_rate == 5000.0


@pytest.mark.benchmark(group="perf")
def test_perf_repeated_plan_cached(benchmark, week_trace):
    """The ablation pattern: many plan() calls on one infrastructure.

    After the first call the combination table comes from the
    infrastructure-level cache, so the loop measures pure decision-loop
    cost (the seed rebuilt the table on every call).
    """
    infra = design(table_i_profiles())
    sched = BMLScheduler(infra)
    sched.plan(week_trace)  # warm the table cache

    def replan():
        return sched.plan(week_trace)

    plan = benchmark.pedantic(replan, rounds=3, iterations=1)
    assert plan.horizon == len(week_trace)
    assert infra.table_cache_misses == 1


@pytest.mark.benchmark(group="perf")
def test_perf_trailing_max_week(benchmark, week_trace):
    """Backward-looking sliding maximum over 604 800 samples."""
    out = benchmark(trailing_max, week_trace.values, 378)
    assert len(out) == len(week_trace)
    assert np.all(out >= week_trace.values)


@pytest.mark.benchmark(group="perf")
def test_perf_power_evaluation(benchmark, infra, week_trace):
    """Vectorised power of one combination over a week of loads."""
    combo = infra.combination_for(4000.0)
    loads = np.minimum(week_trace.values, combo.capacity)
    out = benchmark(combination_power, combo, loads)
    assert out.shape == loads.shape


@pytest.mark.benchmark(group="perf")
def test_perf_scheduler_week(benchmark, infra, week_trace):
    """Full decision loop over a 604 800-sample trace."""
    plan = benchmark.pedantic(
        lambda: BMLScheduler(infra).plan(week_trace), rounds=2, iterations=1
    )
    assert plan.horizon == len(week_trace)


@pytest.mark.benchmark(group="perf")
def test_perf_plan_execution(benchmark, infra, week_trace):
    """Energy/QoS integration of a planned week."""
    plan = BMLScheduler(infra).plan(week_trace)
    result = benchmark(execute_plan, plan, week_trace)
    assert result.total_energy > 0


@pytest.mark.benchmark(group="perf")
def test_perf_lower_bound(benchmark, infra, week_trace):
    """The per-second lower bound over a week (block-wise ``power_at_load``)."""
    table = infra.table(max(week_trace.peak, 1.0))
    result = benchmark(lower_bound_result, week_trace, table)
    assert result.power.shape == week_trace.values.shape
    assert result.total_energy > 0


@pytest.mark.benchmark(group="perf-replay")
def test_perf_event_replay_reference_day(benchmark, infra, day_trace):
    """Per-second FSM reference over one day (86 400 s).

    The O(seconds x machines) loop the two-phase engine replaced; the
    reference/twophase ratio in the benchmark JSON *is* the measured
    speedup.
    """
    _bench_replay(benchmark, infra, day_trace, "reference", rounds=2)


@pytest.mark.benchmark(group="perf-replay")
def test_perf_event_replay_twophase_day(benchmark, infra, day_trace):
    """Two-phase control/evaluate engine over the same day-long trace.

    The PR 6 engine: one kernel invocation per serving set over the
    whole run, journaled meter settling.  More rounds than the
    reference: sub-100 ms measurements on a shared box need a deeper
    min to be comparable across PR artifacts.
    """
    result = _bench_replay(benchmark, infra, day_trace, "twophase", rounds=5)
    assert result.n_segments < len(day_trace) / 20
    assert result.meta["batches"] <= result.meta["serving_sets"]


@pytest.mark.benchmark(group="perf-replay")
def test_perf_event_replay_reference_wc98(benchmark, infra, wc98_slice):
    """Per-second reference on a WC98 archive-format slice (1.5 h)."""
    _bench_replay(benchmark, infra, wc98_slice, "reference", rounds=4)


@pytest.mark.benchmark(group="perf-replay")
def test_perf_event_replay_twophase_wc98(benchmark, infra, wc98_slice):
    """Two-phase engine on the same WC98 slice."""
    _bench_replay(benchmark, infra, wc98_slice, "twophase", rounds=6)


@pytest.fixture(scope="module")
def year_trace():
    """365 days of integer-valued diurnal load — the year-scale target.

    Integer rates (requests per second) recur massively across a year of
    smooth diurnal cycles, so each serving-set group's kernel runs once
    on its dense integer band and power is gathered through one rate
    index — the workload shape the two-phase engine's run-level
    batching is built for (the ROADMAP's months-of-traffic north star).
    """
    from repro.workload import patterns
    from repro.workload.trace import SECONDS_PER_DAY

    duration = 365 * SECONDS_PER_DAY
    base = patterns.diurnal(duration, low=0.15, high=1.0, peak_hour=15.0)
    week = patterns.weekly(duration, 1.0, 0.9)
    values = np.round(patterns.compose(base, [week]) * 3000.0)
    return patterns.make_trace(values, "year-diurnal-synthetic")


@pytest.mark.benchmark(group="perf-replay")
def test_perf_event_replay_twophase_year(benchmark, infra, year_trace):
    """Year-scale replay (31.5 M seconds) on the two-phase engine.

    The PR 6 headline: a 365-day replay as a seconds-scale operation.
    One round — the run is long enough that a single measurement is
    stable, and the reference engine at this scale would take hours.
    """
    result = _bench_replay(benchmark, infra, year_trace, "twophase", rounds=1)
    assert len(result.power) == len(year_trace)


def _diurnal_trace(days):
    """``days`` diurnal days at 1 Hz with integer rates."""
    from repro.workload import patterns
    from repro.workload.trace import SECONDS_PER_DAY

    base = patterns.diurnal(
        days * SECONDS_PER_DAY, low=0.15, high=1.0, peak_hour=15.0
    )
    values = np.round(base * 3000.0)
    return patterns.make_trace(values, f"diurnal-{days}d-synthetic")


@pytest.fixture(scope="module")
def diurnal_day_trace():
    """One diurnal day (control-pass shape; no transition repeats)."""
    return _diurnal_trace(1)


@pytest.fixture(scope="module")
def diurnal_week_trace():
    """Seven diurnal days: each day repeats the first one's transitions."""
    return _diurnal_trace(7)


def _bench_control_pass(benchmark, infra, trace):
    pred = LookAheadMaxPredictor(378)
    table = infra.table(float(np.max(trace.values)))

    def setup():
        return (EventDrivenReplay(table, trace, predictor=pred),), {}

    plan = benchmark.pedantic(
        lambda replay: replay._control_pass(), setup=setup, rounds=5
    )
    assert plan.horizon == len(trace)
    assert plan.descs
    return plan


@pytest.mark.benchmark(group="perf-control")
def test_perf_control_pass_day(benchmark, infra, diurnal_day_trace):
    """Control pass alone: decision scan, FSM walk, descriptor emission.

    PR 9's vectorized control plane isolated from evaluate/settle — the
    journal is left open and no kernel evaluation runs, so this tracks
    exactly the walk the two-phase engine's control phase pays.  The
    prediction-series cache is process-wide, so rounds after the first
    measure the walk, not the sliding-maximum filter.  One day repeats
    no reconfiguration episode, so this also guards the cost of looking
    for repeats on traces that have none.
    """
    _bench_control_pass(benchmark, infra, diurnal_day_trace)


@pytest.mark.benchmark(group="perf-control")
def test_perf_control_pass_week(benchmark, infra, diurnal_week_trace):
    """Control pass over seven diurnal days, where repeated episodes
    replay from their per-pass templates instead of the FSM."""
    plan = _bench_control_pass(benchmark, infra, diurnal_week_trace)
    assert plan.templated > 0


@pytest.mark.benchmark(group="perf-settle")
def test_perf_settle_week(benchmark, infra, diurnal_week_trace):
    """The ledger settle alone over seven diurnal days: the journal walk
    (``record_batch_windows``) and the per-machine fold (``finalize``).

    Each round's untimed set-up runs the control and evaluate passes of
    a fresh replay, so a round times exactly what the two-phase engine's
    settle phase pays.  The settled total must equal a full replay's
    ``meter_energy_j``.
    """
    trace = diurnal_week_trace
    pred = LookAheadMaxPredictor(378)
    table = infra.table(float(np.max(trace.values)))

    def setup():
        replay = EventDrivenReplay(table, trace, predictor=pred)
        plan = replay._control_pass()
        seg_eval = replay._evaluate_pass(plan, trace.values)[2]
        return (replay.meter, seg_eval.__getitem__), {}

    def settle(meter, resolve):
        meter.record_batch_windows(resolve)
        meter.finalize(len(trace))
        return meter

    meter = benchmark.pedantic(settle, setup=setup, rounds=5)
    full = EventDrivenReplay(table, trace, predictor=pred).run()
    assert meter.total_energy == full.meta["meter_energy_j"]


@pytest.mark.benchmark(group="perf-evaluate")
def test_perf_evaluate_week(benchmark, infra, diurnal_week_trace):
    """The evaluate pass alone over seven diurnal days: each serving-set
    group's kernel on its dense integer band, then the block-wise power
    gather through the rate index.

    Each round's untimed set-up runs the control pass of a fresh replay,
    so a round times exactly what the two-phase engine's evaluate phase
    pays.  The power series must equal a full replay's.
    """
    trace = diurnal_week_trace
    pred = LookAheadMaxPredictor(378)
    table = infra.table(float(np.max(trace.values)))

    def setup():
        replay = EventDrivenReplay(table, trace, predictor=pred)
        plan = replay._control_pass()
        assert plan.rates is not None  # the trace takes the rate index
        return (replay, plan), {}

    power = benchmark.pedantic(
        lambda replay, plan: replay._evaluate_pass(plan, trace.values)[0],
        setup=setup,
        rounds=5,
    )
    full = EventDrivenReplay(table, trace, predictor=pred).run()
    assert np.array_equal(power, full.power)


@pytest.mark.benchmark(group="perf-control")
def test_perf_decision_scan_day(benchmark, infra, diurnal_day_trace):
    """The batched reconfiguration bookkeeping: ids, change points and
    the shared decision walk over the whole series — the pure-numpy
    front half of the control pass, with no FSM or event queue in the
    loop."""
    pred_obj = LookAheadMaxPredictor(378)
    table = infra.table(float(np.max(diurnal_day_trace.values)))
    replay = EventDrivenReplay(table, diurnal_day_trace, predictor=pred_obj)
    pred = replay._prediction_series(diurnal_day_trace)
    initial = table.combination_for(float(pred[0]))

    def scan():
        cid, changes, grid_idx = _decision_ids(table, pred, strict=False)
        walk = DecisionWalk(table, initial, int(cid[0]), int(grid_idx[0]))
        return walk.advance(0, cid, grid_idx, pred, changes)

    sched = benchmark(scan)
    assert sched


@pytest.mark.benchmark(group="perf")
def test_perf_predictor_series(benchmark, week_trace):
    """Predictor front-end (validation + array plumbing) over a week."""
    pred = LookAheadMaxPredictor(378)
    out = benchmark(pred.series, week_trace)
    assert len(out) == len(week_trace)
