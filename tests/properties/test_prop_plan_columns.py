"""Columnar plans equal the reference planner, row for row.

``build_plan`` keeps or trims the decisions in one scalar pass and fills
the plan's columns with array ops;
:func:`plan_references._fold_reference` folds the per-decision reference
planner one ``Segment`` and one ``Reconfiguration`` at a time.  Read as
rows, the two must agree whether decisions carry their transitions or
come as bare pairs, whatever the horizon clips or drops, and whether
overlapping decisions are trimmed.  Logs and plans pickle as a fixed
number of arrays plus their distinct combinations.
"""

import pickle
import pickletools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combination import Combination
from repro.core.profiles import table_i_profiles
from repro.core.reconfiguration import (
    PlanSegments,
    ReconfigurationLog,
    SchedulePlan,
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


def _carried(initial, decisions, events):
    """Each decision with the transition from the combination it leaves
    (the target of the last event before it)."""
    out = []
    for when, target in decisions:
        current = initial
        for event in events:
            if event.decided_at < when:
                current = event.after
        out.append((when, target, transition(current, target)))
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(combo_st, min_size=2, max_size=4, unique=True),
    st.lists(
        st.tuples(st.integers(0, 400), st.integers(0, 3)), max_size=40
    ),
    st.integers(-300, 250),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_columns_equal_the_reference_fold(
    pool, steps, offset, carry, trim, fresh
):
    """Carried transitions or bare pairs, decisions past the horizon
    dropped and the last one clipped, overlaps trimmed or rejected."""
    decisions = []
    when = 0
    for gap, k in steps:
        when += gap
        target = pool[k % len(pool)]
        if fresh:  # equal but distinct objects
            target = Combination(target.items)
        decisions.append((when, target))
    horizon = max(1, when + 1 + offset)
    initial = pool[0]
    try:
        segments, events = _fold_reference(horizon, initial, decisions, trim)
    except ValueError:
        with pytest.raises(ValueError, match="inside the reconfiguration"):
            build_plan(horizon, initial, decisions, trim)
        return
    if carry:
        decisions = _carried(initial, decisions, events)
    plan = build_plan(horizon, initial, decisions, trim)
    assert isinstance(plan.segments, PlanSegments)
    assert isinstance(plan.reconfigurations, ReconfigurationLog)
    assert plan.segments == segments
    assert plan.reconfigurations == events
    # Rows give back the caller's objects, not equal copies.
    assert all(a.serving is b.serving for a, b in zip(plan.segments, segments))
    for got, want in zip(plan.reconfigurations, events):
        assert got.before is want.before and got.after is want.after
    assert plan.final is segments[-1].serving
    assert plan.total_switch_energy == sum(e.switch_energy for e in events)


@given(combo_st, combo_st, st.integers(0, 5000), st.integers(-400, 400))
def test_one_decision_equals_the_reference(a, b, decided_at, left):
    """``plan_reconfiguration`` reads its rows out of a one-decision
    plan; a horizon at or before the decision keeps only the event."""
    if a == b:
        return
    horizon = max(0, decided_at + left)
    got = plan_reconfiguration(decided_at, a, b, horizon)
    assert got == _plan_reconfiguration_reference(decided_at, a, b, horizon)


def _log(n):
    a, b = Combination.of({TRIO[0]: 1}), Combination.of({TRIO[1]: 2})
    return ReconfigurationLog.of(
        (10 * i, 10 * i + 7, (a, b)[i % 2], (b, a)[i % 2], 5, 2, 1.5, 0.25)
        for i in range(n)
    )


def _opcodes(payload):
    """Opcode names of a pickle, framing aside."""
    return [
        op.name for op, _, _ in pickletools.genops(payload) if op.name != "FRAME"
    ]


def test_log_pickles_as_columns():
    """300 events pickle to the very opcodes 1000 do: the eight arrays
    and the two combinations, no object per event."""
    small, large = _log(300), _log(1000)
    for log in (small, large):
        back = pickle.loads(pickle.dumps(log))
        assert type(back) is ReconfigurationLog
        assert back == log and back == list(log)
        assert back.combos == log.combos and len(back.combos) == 2
    assert _opcodes(pickle.dumps(small)) == _opcodes(pickle.dumps(large))


def test_plan_pickles_as_columns():
    pool = [Combination.of({TRIO[0]: 1}), Combination.of({TRIO[2]: 3})]

    def plan(n):
        return build_plan(
            500 * n, pool[0], [(500 * i + 50, pool[(i + 1) % 2]) for i in range(n)]
        )

    small, large = plan(300), plan(1000)
    for p in (small, large):
        back = pickle.loads(pickle.dumps(p))
        assert type(back) is SchedulePlan
        assert type(back.segments) is PlanSegments
        assert type(back.reconfigurations) is ReconfigurationLog
        assert back == p
        assert back.segments == list(p.segments)
    assert _opcodes(pickle.dumps(small)) == _opcodes(pickle.dumps(large))
