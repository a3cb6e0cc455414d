"""Property-based tests for reconfiguration planning invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combination import Combination
from repro.core.profiles import table_i_profiles
from repro.core.reconfiguration import (
    Segment,
    build_plan,
    plan_reconfiguration,
    reconfiguration_window,
)

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
    boot, off = reconfiguration_window(a, b)
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


def _fold_reference(horizon, initial, decisions, allow_overlap_trim=False):
    """``build_plan`` without templates: one direct
    :func:`plan_reconfiguration` call per reconfiguration."""
    segments, events = [], []
    current, t = initial, 0
    for when, target in decisions:
        if when >= horizon:
            break
        if when < t:
            if allow_overlap_trim:
                continue
            raise ValueError("decision inside a running reconfiguration")
        if target == current:
            continue
        if when > t:
            segments.append(Segment(t, when, current))
        segs, event = plan_reconfiguration(when, current, target, horizon)
        segments.extend(segs)
        events.append(event)
        current = target
        t = min(event.completes_at, horizon)
        if t >= horizon:
            break
    if t < horizon:
        segments.append(Segment(t, horizon, current))
    return segments, events


def _assert_plan_is_fold(horizon, initial, decisions, allow_overlap_trim):
    plan = build_plan(horizon, initial, decisions, allow_overlap_trim)
    segments, events = _fold_reference(
        horizon, initial, decisions, allow_overlap_trim
    )
    assert plan.segments == segments
    assert plan.reconfigurations == events
    # Shifted templates carry the caller's combination objects, not the
    # template's equal copies.
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
    """Templated plans equal the fold of direct ``plan_reconfiguration``
    calls: transitions repeat (a 2-3 combination pool), close decisions
    are trimmed, and a short tail lets the horizon clip the last one."""
    decisions = []
    when = 0
    for gap, k in steps:
        when += gap
        target = pool[k % len(pool)]
        if fresh:  # equal but distinct objects still share a template
            target = Combination(target.items)
        decisions.append((when, target))
    horizon = when + 1 + tail
    _assert_plan_is_fold(horizon, pool[0], decisions, allow_overlap_trim=True)


def test_build_plan_clips_a_templated_transition():
    """A transition seen before still gets a direct, clipped plan when the
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
