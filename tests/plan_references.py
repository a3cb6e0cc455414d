"""Pure-Python reference planners for the planning properties.

:func:`_plan_reconfiguration_reference` derives one reconfiguration's
cut points and per-span overheads from the profiles at its decision
time, the derivation :func:`repro.core.reconfiguration.transition` now
does once, relative to the decision, for :func:`build_plan` and
:func:`plan_reconfiguration` to emit from.  :func:`_fold_reference` is
``build_plan`` as a loop of those calls, one ``Segment`` and one
``Reconfiguration`` row at a time, and :func:`_plan_reference` is the
per-decision scheduler walk folded through it.
:func:`_decision_ids_reference` gathers the decision ids in one pass
over the whole series, through trace-length temporaries.  The program
never calls them; ``tests/properties/test_prop_reconfiguration.py``,
``tests/properties/test_prop_scheduler.py``,
``tests/properties/test_prop_plan_columns.py`` and
``tests/core/test_scheduler.py`` compare against them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.combination import Combination, CombinationTable
from repro.core.profiles import ArchitectureProfile
from repro.core.reconfiguration import (
    Reconfiguration,
    SchedulePlan,
    Segment,
    _ceil_s,
    transition,
)
from repro.core.scheduler import (
    BMLScheduler,
    ScheduleOutcome,
    _next_decision,
    _row_ids,
)
from repro.workload.trace import LoadTrace


def _decision_ids_reference(
    table: CombinationTable, pred: np.ndarray, *, strict: bool = True
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`repro.core.scheduler._decision_ids` in one whole-series pass."""
    idx, oob = table.clipped_index(pred)
    cid = _row_ids(table.counts_array)[idx]
    if oob.any():
        if strict:
            table.counts_for(pred[oob])  # raises
        cid[oob] = -1
    changes = np.flatnonzero(cid[1:] != cid[:-1]) + 1
    return cid, changes, idx


def _plan_reconfiguration_reference(
    decided_at: int,
    current: Combination,
    target: Combination,
    horizon: int,
) -> Tuple[List[Segment], Reconfiguration]:
    """Plan one reconfiguration; returns its segments and event record.

    Segments are clipped to ``horizon`` (a reconfiguration may be decided
    close to the end of the trace); energies are *not* pro-rated in the
    event record, but the clipped segments carry pro-rated overhead, so the
    integrated energy stays consistent with what physically happened before
    the horizon.
    """
    tr = transition(current, target)
    if not tr.starts and not tr.stops:
        raise ValueError("reconfiguration with no machine changes")
    profs: Dict[str, ArchitectureProfile] = {
        p.name: p for p in current.profiles + target.profiles
    }
    handover = decided_at + tr.boot_duration
    completes = handover + tr.off_duration

    # Overhead power is piecewise constant; collect the change points.
    # Booting arch a: boot power for Ont_a, then idle until hand-over.
    # Stopping arch a: shutdown power for Offt_a after hand-over, then 0.
    boundaries = {decided_at, handover, completes}
    for n, _ in tr.starts:
        boundaries.add(decided_at + _ceil_s(profs[n].on_time))
    for n, _ in tr.stops:
        boundaries.add(handover + _ceil_s(profs[n].off_time))
    cuts = sorted(b for b in boundaries if decided_at <= b <= completes)

    segments: List[Segment] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a >= horizon:
            break
        b_clip = min(b, horizon)
        overhead = 0.0
        for n, cnt in tr.starts:
            p = profs[n]
            boot_end = decided_at + _ceil_s(p.on_time)
            if a < boot_end:
                # Average boot power over the (integer-rounded) duration so
                # the integrated boot energy equals OnE exactly.
                overhead += cnt * (p.on_energy / max(_ceil_s(p.on_time), 1))
            elif a < handover:
                overhead += cnt * p.idle_power  # booted, waiting for hand-over
        for n, cnt in tr.stops:
            p = profs[n]
            off_end = handover + _ceil_s(p.off_time)
            if handover <= a < off_end:
                overhead += cnt * (p.off_energy / max(_ceil_s(p.off_time), 1))
        serving = current if a < handover else target
        segments.append(Segment(a, b_clip, serving, overhead))
        if b_clip < b:
            break

    event = Reconfiguration(
        decided_at=decided_at,
        completes_at=completes,
        before=current,
        after=target,
        boot_duration=tr.boot_duration,
        off_duration=tr.off_duration,
        on_energy=tr.on_energy,
        off_energy=tr.off_energy,
    )
    return segments, event


def _fold_reference(horizon, initial, decisions, allow_overlap_trim=False):
    """``build_plan``'s rows, with every reconfiguration's cut points and
    overheads derived at its decision time: one reference-planner call
    each.  Returns ``(segments, events)`` as lists of rows."""
    segments, events = [], []
    current, t = initial, 0
    for when, target, *_ in decisions:
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
        segs, event = _plan_reconfiguration_reference(
            when, current, target, horizon
        )
        segments.extend(segs)
        events.append(event)
        current = target
        t = min(event.completes_at, horizon)
        if t >= horizon:
            break
    if t < horizon:
        segments.append(Segment(t, horizon, current))
    return segments, events


def _plan_reference(sched: BMLScheduler, trace: LoadTrace) -> ScheduleOutcome:
    """The per-decision planner walk: a ``(T, n_arch)`` count matrix, one
    table lookup and one blocking-window computation per decision."""
    horizon = len(trace)
    pred = sched.predictor.series(trace)
    if sched.app_spec is not None:
        max_rate = float(max(pred.max(), trace.peak))
        table = sched.infra.table(max_rate, sched.method, app_spec=sched.app_spec)
    elif sched.inventory is None:
        max_rate = float(max(pred.max(), trace.peak))
        table = sched.infra.table(max_rate, sched.method)
    else:
        pred = np.minimum(pred, sched._capacity_limit())
        table = sched.infra.table(
            float(pred.max()), sched.method, inventory=sched.inventory
        )
    cid = _row_ids(table.counts_for(pred))
    changes = np.flatnonzero(cid[1:] != cid[:-1]) + 1
    initial = (
        sched.initial
        if sched.initial is not None
        else table.combination_for(float(pred[0]))
    )
    current = initial
    cur_id = cid[0] if sched.initial is None else None
    decisions = []
    t = 0
    while t < horizon:
        td = _next_decision(cid, changes, t, cur_id)
        if td is None:
            break
        target = table.combination_for(float(pred[td]))
        if target == current:
            cur_id = cid[td]
            t = td + 1
            continue
        decisions.append((td, target))
        tr = transition(current, target)
        current = target
        cur_id = cid[td]
        t = td + max(tr.boot_duration + tr.off_duration, 1)
    return ScheduleOutcome(
        plan=SchedulePlan(
            horizon, initial, *_fold_reference(horizon, initial, decisions)
        ),
        predictions=pred,
        table=table,
    )
