"""Reconfiguration planning: turning combination changes into timed actions.

A *reconfiguration* moves the data center from one machine combination to
another.  The library models it make-before-break, charging the paper's
measured overheads (Table I):

1. at the decision time, every machine to be added starts **booting**; a
   booting machine of architecture ``a`` draws ``OnE_a / Ont_a`` Watts for
   ``Ont_a`` seconds (then idles until the hand-over if other architectures
   boot longer);
2. when the slowest boot completes, the application instances **migrate**
   (stateless: stop instance, start instance, update the load balancer) and
   the new combination takes over the serving;
3. machines leaving the combination then **shut down**, drawing
   ``OffE_a / Offt_a`` Watts for ``Offt_a`` seconds.

During the whole window no new decision may be taken (the paper's policy
"ensures the completion of On/Off actions before a new decision"); the
scheduler resumes its sliding window at the completion time.

The planner emits :class:`Segment` lists — contiguous spans with a constant
*serving* combination and constant *overhead* power — which the simulator
integrates against the load trace fully vectorised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

from .combination import Combination
from .profiles import ArchitectureProfile

__all__ = [
    "Segment",
    "Reconfiguration",
    "SchedulePlan",
    "Transition",
    "transition",
    "plan_reconfiguration",
    "build_plan",
]


class _SegmentFields(NamedTuple):
    t_start: int
    t_end: int
    serving: Combination
    overhead_power: float


class Segment(_SegmentFields):
    """A span ``[t_start, t_end)`` with constant serving set and overhead.

    ``serving`` is the combination actually processing requests during the
    span; ``overhead_power`` is the constant extra draw of machines booting,
    waiting for hand-over, or shutting down.  A tuple: plans hold and
    pickle one per span.
    """

    __slots__ = ()

    def __new__(
        cls,
        t_start: int,
        t_end: int,
        serving: Combination,
        overhead_power: float = 0.0,
    ) -> "Segment":
        if t_end <= t_start:
            raise ValueError(f"empty segment [{t_start}, {t_end})")
        if overhead_power < 0:
            raise ValueError("overhead power must be >= 0")
        return tuple.__new__(cls, (t_start, t_end, serving, overhead_power))

    @property
    def duration(self) -> int:
        return self.t_end - self.t_start


class Reconfiguration(NamedTuple):
    """One reconfiguration event and its accounted overheads."""

    decided_at: int
    completes_at: int
    before: Combination
    after: Combination
    boot_duration: int
    off_duration: int
    on_energy: float
    off_energy: float

    @property
    def duration(self) -> int:
        """Total blocking duration in seconds."""
        return self.completes_at - self.decided_at

    @property
    def switch_energy(self) -> float:
        """Total switching energy in Joules (On + Off overheads).

        Note the *waiting* energy of early-booted machines idling until the
        hand-over is carried by the segments' ``overhead_power``, not here.
        """
        return self.on_energy + self.off_energy


@dataclass
class SchedulePlan:
    """A complete, validated execution plan over ``[0, horizon)`` seconds."""

    horizon: int
    initial: Combination
    segments: List[Segment]
    reconfigurations: List[Reconfiguration] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")
        if not self.segments:
            raise ValueError("plan needs at least one segment")
        t = 0
        for seg in self.segments:
            if seg.t_start != t:
                raise ValueError(
                    f"segments not contiguous at t={t} (got {seg.t_start})"
                )
            t = seg.t_end
        if t != self.horizon:
            raise ValueError(f"plan covers [0, {t}), expected [0, {self.horizon})")

    @property
    def final(self) -> Combination:
        """Combination serving at the end of the horizon."""
        return self.segments[-1].serving

    @property
    def n_reconfigurations(self) -> int:
        return len(self.reconfigurations)

    @property
    def total_switch_energy(self) -> float:
        """Sum of On/Off energies over all reconfigurations (Joules)."""
        return sum(r.switch_energy for r in self.reconfigurations)


def _ceil_s(x: float) -> int:
    """Whole seconds a transition of ``x`` seconds occupies."""
    return int(math.ceil(x - 1e-9))


class Transition(NamedTuple):
    """The machine-level delta of one combination change.

    ``starts``/``stops`` are ``(name, count)`` pairs in
    :meth:`~repro.core.combination.Combination.diff` order.  The blocking
    window of the decision is ``boot_duration + off_duration``: boots run
    first (make-before-break), shutdowns start at the hand-over.  The
    energies accumulate from int ``0`` in ``diff`` order, so a change
    that starts nothing has ``on_energy == 0`` as an int (journal
    payloads encode it that way).

    ``pieces`` is the window's piecewise-constant overhead relative to
    the decision: contiguous ``(start, end, overhead_power,
    serves_target)`` spans over ``[0, boot_duration + off_duration)``,
    bounds in whole seconds.  ``serves_target`` is false before the
    hand-over.  A change with no machine delta has no pieces.
    """

    starts: Tuple[Tuple[str, int], ...]
    stops: Tuple[Tuple[str, int], ...]
    boot_duration: int
    off_duration: int
    on_energy: float
    off_energy: float
    pieces: Tuple[Tuple[int, int, float, bool], ...]


def transition(current: Combination, target: Combination) -> Transition:
    """The :class:`Transition` moving ``current`` to ``target``."""
    profs: Dict[str, ArchitectureProfile] = {
        p.name: p for p in current.profiles + target.profiles
    }
    delta = current.diff(target)
    starts = tuple((n, d) for n, d in delta.items() if d > 0)
    stops = tuple((n, -d) for n, d in delta.items() if d < 0)
    boot_dur = off_dur = 0
    on_energy = off_energy = 0
    for name, cnt in starts:
        p = profs[name]
        boot_dur = max(boot_dur, _ceil_s(p.on_time))
        on_energy = on_energy + cnt * p.on_energy
    for name, cnt in stops:
        p = profs[name]
        off_dur = max(off_dur, _ceil_s(p.off_time))
        off_energy = off_energy + cnt * p.off_energy

    # Overhead power is piecewise constant; collect the change points.
    # Booting arch a: boot power for Ont_a, then idle until hand-over.
    # Stopping arch a: shutdown power for Offt_a after hand-over, then 0.
    handover = boot_dur
    boundaries = {0, handover, handover + off_dur}
    for n, _ in starts:
        boundaries.add(_ceil_s(profs[n].on_time))
    for n, _ in stops:
        boundaries.add(handover + _ceil_s(profs[n].off_time))
    cuts = sorted(boundaries)
    pieces = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        overhead = 0.0
        for n, cnt in starts:
            p = profs[n]
            if a < _ceil_s(p.on_time):
                # Average boot power over the (integer-rounded) duration so
                # the integrated boot energy equals OnE exactly.
                overhead += cnt * (p.on_energy / max(_ceil_s(p.on_time), 1))
            elif a < handover:
                overhead += cnt * p.idle_power  # booted, waiting for hand-over
        for n, cnt in stops:
            p = profs[n]
            if handover <= a < handover + _ceil_s(p.off_time):
                overhead += cnt * (p.off_energy / max(_ceil_s(p.off_time), 1))
        pieces.append((a, b, overhead, a >= handover))
    return Transition(
        starts, stops, boot_dur, off_dur, on_energy, off_energy, tuple(pieces)
    )


def _emit(
    segments: List[Segment],
    when: int,
    current: Combination,
    target: Combination,
    tr: Transition,
    horizon: int,
) -> Reconfiguration:
    """Append ``tr``'s pieces, moved to ``when`` and clipped to
    ``horizon``, to ``segments``; return the event record."""
    for start, end, overhead, serves_target in tr.pieces:
        a = when + start
        if a >= horizon:
            break
        segments.append(
            Segment(a, min(when + end, horizon),
                    target if serves_target else current, overhead)
        )
    return Reconfiguration(
        when, when + tr.boot_duration + tr.off_duration, current, target,
        tr.boot_duration, tr.off_duration, tr.on_energy, tr.off_energy,
    )


def plan_reconfiguration(
    decided_at: int,
    current: Combination,
    target: Combination,
    horizon: int,
) -> Tuple[List[Segment], Reconfiguration]:
    """Plan one reconfiguration; returns its segments and event record.

    The one-decision form of :func:`build_plan`'s emission.  Segments
    are clipped to ``horizon`` (a reconfiguration may be decided close
    to the end of the trace); energies are *not* pro-rated in the event
    record, but the clipped segments carry pro-rated overhead, so the
    integrated energy stays consistent with what physically happened
    before the horizon.
    """
    tr = transition(current, target)
    if not tr.starts and not tr.stops:
        raise ValueError("reconfiguration with no machine changes")
    segments: List[Segment] = []
    event = _emit(segments, decided_at, current, target, tr, horizon)
    return segments, event


def build_plan(
    horizon: int,
    initial: Combination,
    decisions: Sequence[
        Union[Tuple[int, Combination], Tuple[int, Combination, Transition]]
    ],
    allow_overlap_trim: bool = False,
) -> SchedulePlan:
    """Assemble a full plan from ``(decision_time, target_combination)``.

    Decisions must be strictly increasing in time and each must fire after
    the previous reconfiguration completed (the scheduler guarantees this;
    ``allow_overlap_trim=True`` instead silently drops late-arriving
    decisions that fall inside a running reconfiguration — useful for
    simple calendar policies like the per-day baseline).

    A decision may carry the transition its caller already derived, as
    ``(when, target, transition)``.  It is trusted, and must equal
    ``transition(current, target)`` for the combination ``current`` it
    leaves; a bare ``(when, target)`` pair derives its own.  Each
    reconfiguration's segments are its transition's decision-relative
    pieces moved to ``when`` and clipped to the horizon — exact, as every
    piece bound is an integer offset and no overhead power depends on the
    decision time.
    """
    segments: List[Segment] = []
    events: List[Reconfiguration] = []
    current = initial
    t = 0
    for when, target, *carried in decisions:
        if when >= horizon:
            break
        if when < t:
            if allow_overlap_trim:
                continue
            raise ValueError(
                f"decision at t={when} inside the reconfiguration "
                f"running until t={t}"
            )
        if target == current:
            continue
        if when > t:
            segments.append(Segment(t, when, current))
        tr = carried[0] if carried else transition(current, target)
        event = _emit(segments, when, current, target, tr, horizon)
        events.append(event)
        current = target
        t = min(event.completes_at, horizon)
        if t >= horizon:
            break
    if t < horizon:
        segments.append(Segment(t, horizon, current))
    return SchedulePlan(
        horizon=horizon, initial=initial, segments=segments, reconfigurations=events
    )
