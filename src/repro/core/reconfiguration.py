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
from typing import Dict, List, Sequence, Tuple

from .combination import Combination
from .profiles import ArchitectureProfile

__all__ = [
    "Segment",
    "Reconfiguration",
    "SchedulePlan",
    "plan_reconfiguration",
    "reconfiguration_window",
    "build_plan",
]


@dataclass(frozen=True)
class Segment:
    """A span ``[t_start, t_end)`` with constant serving set and overhead.

    ``serving`` is the combination actually processing requests during the
    span; ``overhead_power`` is the constant extra draw of machines booting,
    waiting for hand-over, or shutting down.
    """

    t_start: int
    t_end: int
    serving: Combination
    overhead_power: float = 0.0

    def __post_init__(self) -> None:
        if self.t_end <= self.t_start:
            raise ValueError(f"empty segment [{self.t_start}, {self.t_end})")
        if self.overhead_power < 0:
            raise ValueError("overhead power must be >= 0")

    @property
    def duration(self) -> int:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class Reconfiguration:
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
    return int(math.ceil(x - 1e-9))


def reconfiguration_window(
    current: Combination, target: Combination
) -> Tuple[int, int]:
    """(boot, shutdown) durations in whole seconds for a combination change.

    The blocking window of the decision is their sum: boots run first
    (make-before-break), shutdowns start at the hand-over.
    """
    delta = current.diff(target)
    profs = {p.name: p for p in current.profiles + target.profiles}
    boot = max(
        (_ceil_s(profs[n].on_time) for n, d in delta.items() if d > 0), default=0
    )
    off = max(
        (_ceil_s(profs[n].off_time) for n, d in delta.items() if d < 0), default=0
    )
    return boot, off


def plan_reconfiguration(
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
    delta = current.diff(target)
    profs: Dict[str, ArchitectureProfile] = {
        p.name: p for p in current.profiles + target.profiles
    }
    starts = {n: d for n, d in delta.items() if d > 0}
    stops = {n: -d for n, d in delta.items() if d < 0}
    if not starts and not stops:
        raise ValueError("reconfiguration with no machine changes")

    boot_dur = max((_ceil_s(profs[n].on_time) for n in starts), default=0)
    off_dur = max((_ceil_s(profs[n].off_time) for n in stops), default=0)
    handover = decided_at + boot_dur
    completes = handover + off_dur

    # Overhead power is piecewise constant; collect the change points.
    # Booting arch a: boot power for Ont_a, then idle until hand-over.
    # Stopping arch a: shutdown power for Offt_a after hand-over, then 0.
    boundaries = {decided_at, handover, completes}
    for n in starts:
        boundaries.add(decided_at + _ceil_s(profs[n].on_time))
    for n in stops:
        boundaries.add(handover + _ceil_s(profs[n].off_time))
    cuts = sorted(b for b in boundaries if decided_at <= b <= completes)

    segments: List[Segment] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a >= horizon:
            break
        b_clip = min(b, horizon)
        overhead = 0.0
        for n, cnt in starts.items():
            p = profs[n]
            boot_end = decided_at + _ceil_s(p.on_time)
            if a < boot_end:
                # Average boot power over the (integer-rounded) duration so
                # the integrated boot energy equals OnE exactly.
                overhead += cnt * (p.on_energy / max(_ceil_s(p.on_time), 1))
            elif a < handover:
                overhead += cnt * p.idle_power  # booted, waiting for hand-over
        for n, cnt in stops.items():
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
        boot_duration=boot_dur,
        off_duration=off_dur,
        on_energy=sum(cnt * profs[n].on_energy for n, cnt in starts.items()),
        off_energy=sum(cnt * profs[n].off_energy for n, cnt in stops.items()),
    )
    return segments, event


def build_plan(
    horizon: int,
    initial: Combination,
    decisions: Sequence[Tuple[int, Combination]],
    allow_overlap_trim: bool = False,
) -> SchedulePlan:
    """Assemble a full plan from ``(decision_time, target_combination)``.

    Decisions must be strictly increasing in time and each must fire after
    the previous reconfiguration completed (the scheduler guarantees this;
    ``allow_overlap_trim=True`` instead silently drops late-arriving
    decisions that fall inside a running reconfiguration — useful for
    simple calendar policies like the per-day baseline).

    Each ``(before, after)`` pair is planned once and shifted to later
    decision times — exact, as no bound, power or energy of
    :func:`plan_reconfiguration` depends on the decision time; only a
    reconfiguration the horizon clips is planned directly.
    """
    segments: List[Segment] = []
    events: List[Reconfiguration] = []
    templates: Dict[Tuple[Combination, Combination], tuple] = {}
    current = initial
    t = 0
    for when, target in decisions:
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
        template = templates.get((current, target))
        if template is not None and when + template[1].duration <= horizon:
            recon_segs, event = _shifted(template, when, current, target)
        else:
            recon_segs, event = plan_reconfiguration(when, current, target, horizon)
            templates[current, target] = (recon_segs, event)
        segments.extend(recon_segs)
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


def _shifted(
    template: Tuple[List[Segment], Reconfiguration],
    when: int,
    current: Combination,
    target: Combination,
) -> Tuple[List[Segment], Reconfiguration]:
    """An unclipped reconfiguration plan moved to decision time ``when``."""
    segs, ev = template
    shift = when - ev.decided_at
    handover = ev.decided_at + ev.boot_duration
    return [
        Segment(s.t_start + shift, s.t_end + shift,
                current if s.t_start < handover else target, s.overhead_power)
        for s in segs
    ], Reconfiguration(
        decided_at=when, completes_at=ev.completes_at + shift, before=current,
        after=target, boot_duration=ev.boot_duration, off_duration=ev.off_duration,
        on_energy=ev.on_energy, off_energy=ev.off_energy,
    )
