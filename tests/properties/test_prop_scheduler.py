"""Property-based tests for the scheduler and plan executor.

These are end-to-end invariants: for *any* load trace, the planned
schedule must be well-formed, block during reconfigurations, provision
enough capacity for every prediction, and the integrated energy must lie
between the theoretical lower bound and the always-peak upper bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.combination import Combination, CombinationError
from repro.core.prediction import LookAheadMaxPredictor
from repro.core.profiles import TABLE_I
from repro.core.scheduler import BMLScheduler, _decision_ids
from repro.sim.application import ApplicationSpec
from repro.sim.datacenter import execute_plan, lower_bound_result
from repro.workload.trace import LoadTrace
from plan_references import _decision_ids_reference, _plan_reference

#: The property suites pin the bit-identity contracts cheaply; they are
#: part of the `quick` iteration subset (benchmarks/run_quick.py).
pytestmark = pytest.mark.quick

load_st = arrays(
    dtype=np.float64,
    shape=st.integers(50, 1200),
    elements=st.floats(0.0, 3000.0, allow_nan=False, allow_infinity=False),
)
window_st = st.integers(1, 600)

#: Step patterns repeated a few times: the same transitions recur, so the
#: memoised windows and templated reconfigurations get reused.
step_load_st = st.builds(
    lambda steps, reps: np.tile(
        np.concatenate([np.full(n, level) for level, n in steps]), reps
    ),
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 8.0, 30.0, 120.0, 900.0, 1400.0, 2900.0]),
            st.integers(1, 400),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(1, 4),
)

P, C, R = (TABLE_I[n] for n in ("paravance", "chromebook", "raspberry"))

#: The planner configurations the identity test sweeps: the default,
#: explicit initial combinations (two Bigs, none, a small one), an
#: inventory whose capacity leaves high plateaus unservable, application
#: constraints, and the exact DP tables.
PLANNER_CONFIGS = {
    "default": {},
    "initial-two-bigs": {"initial": Combination.of({P: 2})},
    "initial-empty": {"initial": Combination.empty()},
    "initial-small": {"initial": Combination.of({C: 1, R: 1})},
    "inventory": {"inventory": {"paravance": 1, "chromebook": 5, "raspberry": 5}},
    "app-spec": {"app_spec": ApplicationSpec(min_instances=2)},
    "ideal": {"method": "ideal"},
}


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(load_st, step_load_st),
    window_st,
    st.sampled_from(sorted(PLANNER_CONFIGS)),
)
def test_plan_detailed_matches_reference_walk(infra_session, load, window, config):
    """The memoised walk plans exactly what the per-decision walk plans."""
    trace = LoadTrace(load)
    sched = BMLScheduler(
        infra_session,
        predictor=LookAheadMaxPredictor(window),
        **PLANNER_CONFIGS[config],
    )
    got = sched.plan_detailed(trace)
    want = _plan_reference(sched, trace)
    assert got.plan.horizon == want.plan.horizon
    assert got.plan.initial == want.plan.initial
    assert got.plan.segments == want.plan.segments
    assert got.plan.reconfigurations == want.plan.reconfigurations
    assert np.array_equal(got.predictions, want.predictions)
    assert np.array_equal(got.table.counts_array, want.table.counts_array)


@settings(max_examples=30, deadline=None)
@given(load_st, window_st)
def test_plan_is_wellformed(infra_session, load, window):
    trace = LoadTrace(load)
    plan = BMLScheduler(
        infra_session, predictor=LookAheadMaxPredictor(window)
    ).plan(trace)
    t = 0
    for seg in plan.segments:
        assert seg.t_start == t
        t = seg.t_end
    assert t == len(trace)
    for a, b in zip(plan.reconfigurations[:-1], plan.reconfigurations[1:]):
        assert b.decided_at >= a.completes_at


@settings(max_examples=30, deadline=None)
@given(load_st, window_st)
def test_targets_cover_predictions(infra_session, load, window):
    trace = LoadTrace(load)
    out = BMLScheduler(
        infra_session, predictor=LookAheadMaxPredictor(window)
    ).plan_detailed(trace)
    for r in out.plan.reconfigurations:
        assert r.after.capacity >= out.predictions[r.decided_at] - 1e-6


@settings(max_examples=20, deadline=None)
@given(load_st)
def test_energy_bounded_below_by_lower_bound(infra_session, load):
    trace = LoadTrace(load)
    plan = BMLScheduler(infra_session).plan(trace)
    res = execute_plan(plan, trace)
    lb = lower_bound_result(
        trace, infra_session.table(max(trace.peak, 1.0))
    )
    assert res.total_energy >= lb.total_energy - 1e-6


@settings(max_examples=20, deadline=None)
@given(load_st)
def test_unserved_only_during_reconfigurations(infra_session, load):
    """With look-ahead-max prediction, capacity shortfalls can only occur
    while a reconfiguration is in flight (old serving set)."""
    trace = LoadTrace(load)
    plan = BMLScheduler(infra_session).plan(trace)
    res = execute_plan(plan, trace)
    violating = np.flatnonzero(res.unserved > 1e-9)
    windows = [(r.decided_at, r.completes_at) for r in plan.reconfigurations]
    for t in violating:
        assert any(a <= t < b for a, b in windows)


#: Series lengths around the 65 536-sample blocks ``_decision_ids`` reads.
ID_LENGTHS = (1, 65_535, 65_536, 65_537, 3 * 65_536 + 17)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from(ID_LENGTHS),
    rows=st.integers(1, 3001),
    run=st.sampled_from([1, 50, 5000]),
    n_oob=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_decision_ids_match_whole_series_reference(
    infra_session, n, rows, run, n_oob, seed
):
    """Blocked ids equal the whole-series pass: out-of-table rates spread
    over blocks raise the same message, or get the same ``-1`` ids."""
    table = infra_session.table(3000.0).truncated(rows - 1)
    rng = np.random.default_rng(seed)
    levels = rng.random(n // run + 1) * table.max_rate
    pred = np.repeat(levels, run)[:n]
    oob = rng.integers(0, n, n_oob)
    pred[oob] = table.max_rate + 1.0 + rng.random(n_oob) * 1000.0
    got = _decision_ids(table, pred, strict=False)
    want = _decision_ids_reference(table, pred, strict=False)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    if n_oob:
        with pytest.raises(CombinationError) as want_exc:
            _decision_ids_reference(table, pred)
        with pytest.raises(CombinationError) as got_exc:
            _decision_ids(table, pred)
        assert str(got_exc.value) == str(want_exc.value)
    else:
        for g, w in zip(_decision_ids(table, pred), want):
            assert np.array_equal(g, w)


@pytest.fixture(scope="module")
def infra_session():
    from repro.core.bml import design
    from repro.core.profiles import table_i_profiles

    return design(table_i_profiles())
