"""Property-based tests for reconfiguration planning invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.combination import Combination
from repro.core.profiles import table_i_profiles
from repro.core.reconfiguration import (
    build_plan,
    plan_reconfiguration,
    transition,
)
from plan_references import _fold_reference, _plan_reconfiguration_reference

#: The property suites pin the bit-identity contracts cheaply; they are
#: part of the `quick` iteration subset (benchmarks/run_quick.py).
pytestmark = pytest.mark.quick

TRIO = tuple(
    p for p in table_i_profiles() if p.name in ("paravance", "chromebook", "raspberry")
)

combo_st = st.builds(
    lambda counts: Combination.of(dict(zip(TRIO, counts))),
    st.lists(st.integers(0, 6), min_size=3, max_size=3),
)


@given(combo_st, combo_st)
def test_window_durations_bound_profiles(a, b):
    tr = transition(a, b)
    boot, off = tr.boot_duration, tr.off_duration
    max_on = max(int(np.ceil(p.on_time)) for p in TRIO)
    max_off = max(int(np.ceil(p.off_time)) for p in TRIO)
    assert 0 <= boot <= max_on
    assert 0 <= off <= max_off


@given(combo_st, combo_st)
def test_switch_energy_matches_deltas(a, b):
    if a == b:
        return
    _, event = plan_reconfiguration(0, a, b, 10_000)
    expected_on = sum(
        d * p.on_energy
        for p in TRIO
        for n, d in a.diff(b).items()
        if n == p.name and d > 0
    )
    expected_off = sum(
        -d * p.off_energy
        for p in TRIO
        for n, d in a.diff(b).items()
        if n == p.name and d < 0
    )
    assert event.on_energy == pytest.approx(expected_on)
    assert event.off_energy == pytest.approx(expected_off)


@given(combo_st, combo_st)
def test_segment_overheads_integrate_to_switch_energy_plus_waiting(a, b):
    """Integrated overhead = On energy + Off energy + waiting-idle energy
    of machines that booted before the slowest one."""
    if a == b:
        return
    segs, event = plan_reconfiguration(0, a, b, 10_000)
    integrated = sum(s.overhead_power * s.duration for s in segs)
    delta = a.diff(b)
    waiting = 0.0
    boot = event.boot_duration
    for p in TRIO:
        d = delta.get(p.name, 0)
        if d > 0:
            waiting += d * p.idle_power * (boot - int(np.ceil(p.on_time)))
    assert integrated == pytest.approx(event.switch_energy + waiting, rel=1e-9)


@given(
    combo_st,
    st.lists(st.tuples(st.integers(0, 5000), combo_st), min_size=0, max_size=6),
    st.integers(1000, 6000),
)
def test_build_plan_always_covers_horizon(initial, raw_decisions, horizon):
    decisions = sorted(raw_decisions, key=lambda d: d[0])
    plan = build_plan(horizon, initial, decisions, allow_overlap_trim=True)
    t = 0
    for seg in plan.segments:
        assert seg.t_start == t
        t = seg.t_end
    assert t == horizon
    # reconfiguration windows never overlap
    for x, y in zip(plan.reconfigurations[:-1], plan.reconfigurations[1:]):
        assert y.decided_at >= x.completes_at


@given(combo_st, combo_st, st.integers(0, 5000), st.integers(1, 400))
def test_plan_reconfiguration_equals_reference(a, b, decided_at, left):
    """One decision's emission equals the reference planner's derivation
    at its decision time, whether or not the horizon clips it."""
    assume(a != b)
    horizon = decided_at + left
    got = plan_reconfiguration(decided_at, a, b, horizon)
    assert got == _plan_reconfiguration_reference(decided_at, a, b, horizon)


def _assert_plan_is_fold(horizon, initial, decisions, allow_overlap_trim):
    plan = build_plan(horizon, initial, decisions, allow_overlap_trim)
    segments, events = _fold_reference(
        horizon, initial, decisions, allow_overlap_trim
    )
    assert plan.segments == segments
    assert plan.reconfigurations == events
    # Segments emitted from a transition carry the caller's combination
    # objects, not the equal copies its transition was derived from.
    assert all(a.serving is b.serving for a, b in zip(plan.segments, segments))
    for got, want in zip(plan.reconfigurations, events):
        assert got.before is want.before and got.after is want.after
    return plan


@settings(max_examples=150, deadline=None)
@given(
    st.lists(combo_st, min_size=2, max_size=3, unique=True),
    st.lists(
        st.tuples(st.integers(1, 400), st.integers(0, 2)), min_size=1, max_size=40
    ),
    st.integers(0, 250),
    st.booleans(),
)
def test_build_plan_equals_direct_fold(pool, steps, tail, fresh):
    """Plans emitted from decision-relative transitions equal the fold of
    the reference planner: transitions repeat (a 2-3 combination pool),
    close decisions are trimmed, and a short tail lets the horizon clip
    the last one."""
    decisions = []
    when = 0
    for gap, k in steps:
        when += gap
        target = pool[k % len(pool)]
        if fresh:  # equal but distinct objects
            target = Combination(target.items)
        decisions.append((when, target))
    horizon = when + 1 + tail
    _assert_plan_is_fold(horizon, pool[0], decisions, allow_overlap_trim=True)


def test_build_plan_clips_a_templated_transition():
    """A transition seen before is clipped like a fresh one when the
    horizon cuts it short."""
    a = Combination.of({TRIO[0]: 1, TRIO[2]: 2})
    b = Combination.of({TRIO[0]: 2, TRIO[1]: 1})
    decisions = [(100, b), (1000, a), (2000, b), (3000, a), (4000, b)]
    _, event = plan_reconfiguration(0, a, b, 10_000)
    horizon = 4000 + event.duration // 2
    plan = _assert_plan_is_fold(horizon, a, decisions, allow_overlap_trim=False)
    assert plan.reconfigurations[-1].completes_at > horizon
    assert plan.segments[-1].t_end == horizon
    assert [r.decided_at for r in plan.reconfigurations] == [100, 1000, 2000, 3000, 4000]
