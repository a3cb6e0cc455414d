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

The planner emits each plan as columns: :class:`PlanSegments` holds one
row per contiguous span with a constant *serving* combination and
constant *overhead* power, which the simulator integrates against the
load trace fully vectorised, and :class:`ReconfigurationLog` one row per
event.  :class:`Segment` and :class:`Reconfiguration` are their row
types, built only when a row is read.
"""

from __future__ import annotations

import math
import operator
from collections import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .combination import Combination
from .profiles import ArchitectureProfile

__all__ = [
    "Segment",
    "Reconfiguration",
    "PlanSegments",
    "ReconfigurationLog",
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
    waiting for hand-over, or shutting down.  The row type of
    :class:`PlanSegments`.
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
    """One reconfiguration event and its accounted overheads.

    The row type of :class:`ReconfigurationLog`.
    """

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


def _positions(objects: List, first: object = None) -> Tuple[tuple, np.ndarray]:
    """The distinct objects (by identity, ``first`` leading when given)
    in first-seen order, and each object's position among them."""
    distinct = dict(zip(map(id, objects), objects))
    if first is not None:
        distinct = {id(first): first, **distinct}
    pos = dict(zip(distinct, range(len(distinct))))
    return tuple(distinct.values()), np.fromiter(
        map(pos.__getitem__, map(id, objects)), np.int64, len(objects)
    )


class _Rows(abc.Sequence):
    """Rows over columns, each built when it is read.

    An index gives one row and a slice a list of rows; iteration and
    equality (with a list of rows or another view) go row by row.  A
    subclass lists its constructor's arguments, in order, as its
    ``__slots__``: that tuple is its pickle.
    """

    __slots__ = ()

    def _rows(self, sl: slice) -> list:
        raise NotImplementedError

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._rows(key)
        n = len(self)
        i = operator.index(key)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._rows(slice(i, i + 1))[0]

    def __iter__(self):
        return iter(self._rows(slice(None)))

    def __eq__(self, other):
        if isinstance(other, (list, _Rows)):
            return len(self) == len(other) and self[:] == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self[:]!r})"


class PlanSegments(_Rows):
    """A plan's segments over ``[0, horizon)`` as columns.

    Row ``i`` is served by ``combos[serving[i]]`` from ``t_start[i]``
    to the next row's start (the last row to ``horizon``) with the
    constant extra draw ``overhead_power[i]``, so rows are contiguous
    by construction.  ``combos`` holds each distinct combination object
    once.  Rows read as :class:`Segment`.  The constructor takes the
    columns as they are; :meth:`of` checks rows before converting them.
    """

    __slots__ = ("t_start", "serving", "overhead_power", "combos", "horizon")

    def __init__(self, t_start, serving, overhead_power, combos, horizon):
        self.t_start = np.asarray(t_start, np.int64)
        self.serving = np.asarray(serving, np.int64)
        self.overhead_power = np.asarray(overhead_power, np.float64)
        self.combos: Tuple[Combination, ...] = tuple(combos)
        self.horizon = int(horizon)

    @classmethod
    def of(cls, rows: Sequence[Segment], horizon: int) -> "PlanSegments":
        """The columns of contiguous rows covering ``[0, horizon)``."""
        if not rows:
            raise ValueError("plan needs at least one segment")
        t = 0
        for seg in rows:
            if seg.t_start != t:
                raise ValueError(
                    f"segments not contiguous at t={t} (got {seg.t_start})"
                )
            t = seg.t_end
        if t != horizon:
            raise ValueError(f"plan covers [0, {t}), expected [0, {horizon})")
        combos, serving = _positions([seg.serving for seg in rows])
        return cls(
            [seg.t_start for seg in rows],
            serving,
            [seg.overhead_power for seg in rows],
            combos,
            horizon,
        )

    def __len__(self) -> int:
        return len(self.t_start)

    @property
    def t_end(self) -> np.ndarray:
        """Each row's end: the next row's start, then the horizon."""
        return np.append(self.t_start[1:], self.horizon)

    def _rows(self, sl: slice) -> List[Segment]:
        combos = self.combos
        return [
            Segment(a, b, combos[k], p)
            for a, b, k, p in zip(
                self.t_start[sl].tolist(),
                self.t_end[sl].tolist(),
                self.serving[sl].tolist(),
                self.overhead_power[sl].tolist(),
            )
        ]


class ReconfigurationLog(_Rows):
    """Reconfiguration events as columns, one row per event.

    The columns are :class:`Reconfiguration`'s fields, with ``before``
    and ``after`` indexing ``combos``, which holds each distinct
    combination object once.  A log pickles as its eight arrays plus
    ``combos``, whatever its length.  Totals add left to right, like a
    Python ``sum`` over the rows, so they carry the same bits.
    """

    __slots__ = Reconfiguration._fields + ("combos",)

    def __init__(
        self, decided_at, completes_at, before, after, boot_duration,
        off_duration, on_energy, off_energy, combos,
    ):
        self.decided_at = np.asarray(decided_at, np.int64)
        self.completes_at = np.asarray(completes_at, np.int64)
        self.before = np.asarray(before, np.int64)
        self.after = np.asarray(after, np.int64)
        self.boot_duration = np.asarray(boot_duration, np.int64)
        self.off_duration = np.asarray(off_duration, np.int64)
        self.on_energy = np.asarray(on_energy, np.float64)
        self.off_energy = np.asarray(off_energy, np.float64)
        self.combos: Tuple[Combination, ...] = tuple(combos)

    @classmethod
    def of(cls, rows: Iterable[tuple] = ()) -> "ReconfigurationLog":
        """The columns of :class:`Reconfiguration` rows (or plain tuples
        of its eight fields)."""
        cols = tuple(zip(*rows)) or ((),) * 8
        combos, index = _positions([*cols[2], *cols[3]])
        n = len(cols[0])
        return cls(cols[0], cols[1], index[:n], index[n:], *cols[4:], combos)

    def __len__(self) -> int:
        return len(self.decided_at)

    def _rows(self, sl: slice) -> List[Reconfiguration]:
        combos = self.combos
        cols = [getattr(self, name)[sl].tolist() for name in Reconfiguration._fields]
        return [
            Reconfiguration(t, u, combos[b], combos[a], bd, od, on, off)
            for t, u, b, a, bd, od, on, off in zip(*cols)
        ]

    @property
    def duration(self) -> np.ndarray:
        """Each event's blocking duration in seconds."""
        return self.completes_at - self.decided_at

    @property
    def switch_energy(self) -> np.ndarray:
        """Each event's On + Off energy in Joules."""
        return self.on_energy + self.off_energy

    @property
    def total_switch_energy(self) -> float:
        """Sum of On/Off energies over all events (Joules).

        ``np.cumsum`` adds left to right, as ``sum`` over the rows did;
        ``np.sum``'s pairwise reduction would round differently.
        """
        energy = self.switch_energy
        return float(np.cumsum(energy)[-1]) if len(energy) else 0.0


@dataclass
class SchedulePlan:
    """A complete, validated execution plan over ``[0, horizon)`` seconds.

    A list of :class:`Segment` rows passed as ``segments`` is checked
    and converted to columns.
    """

    horizon: int
    initial: Combination
    segments: PlanSegments
    reconfigurations: ReconfigurationLog = field(
        default_factory=ReconfigurationLog.of
    )

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")
        if not isinstance(self.segments, PlanSegments):
            self.segments = PlanSegments.of(self.segments, self.horizon)
        elif self.segments.horizon != self.horizon:
            raise ValueError(
                f"segments cover [0, {self.segments.horizon}), expected "
                f"[0, {self.horizon})"
            )

    @property
    def final(self) -> Combination:
        """Combination serving at the end of the horizon."""
        segs = self.segments
        return segs.combos[segs.serving[-1]]

    @property
    def n_reconfigurations(self) -> int:
        return len(self.reconfigurations)

    @property
    def total_switch_energy(self) -> float:
        """Sum of On/Off energies over all reconfigurations (Joules)."""
        return self.reconfigurations.total_switch_energy


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


def plan_reconfiguration(
    decided_at: int,
    current: Combination,
    target: Combination,
    horizon: int,
) -> Tuple[List[Segment], Reconfiguration]:
    """Plan one reconfiguration; returns its segments and event record.

    The one-decision form of :func:`build_plan`, read out of that
    function's plan.  Segments are clipped to ``horizon`` (a
    reconfiguration may be decided close to the end of the trace);
    energies are *not* pro-rated in the event record, but the clipped
    segments carry pro-rated overhead, so the integrated energy stays
    consistent with what physically happened before the horizon.
    """
    tr = transition(current, target)
    if not tr.starts and not tr.stops:
        raise ValueError("reconfiguration with no machine changes")
    # A horizon at or before the decision keeps the event, no segment.
    plan = build_plan(
        max(horizon, decided_at + 1), current, [(decided_at, target, tr)]
    )
    event = plan.reconfigurations[0]
    segs = plan.segments
    lo, hi = segs.t_start.searchsorted(
        [decided_at, min(event.completes_at, horizon)]
    ).tolist()
    return segs[lo:hi], event


def build_plan(
    horizon: int,
    initial: Combination,
    decisions: Iterable[
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
    leaves; a bare ``(when, target)`` pair derives its own.  One scalar
    pass keeps or trims the decisions; the plan's columns are then
    filled with array ops (:func:`_emit`), and no per-segment or
    per-event object is built.
    """
    when: List[int] = []
    targets: List[Combination] = []
    kept: List[Transition] = []
    current = initial
    t = 0
    for decision in decisions:
        w, target = decision[0], decision[1]
        if w >= horizon:
            break
        if w < t:
            if allow_overlap_trim:
                continue
            raise ValueError(
                f"decision at t={w} inside the reconfiguration "
                f"running until t={t}"
            )
        if target == current:
            continue
        tr = decision[2] if len(decision) > 2 else transition(current, target)
        when.append(w)
        targets.append(target)
        kept.append(tr)
        current = target
        t = w + tr.boot_duration + tr.off_duration
        if t >= horizon:
            break
    return _emit(horizon, initial, when, targets, kept)


def _emit(
    horizon: int,
    initial: Combination,
    when: List[int],
    targets: List[Combination],
    kept: List[Transition],
) -> SchedulePlan:
    """The plan of the kept decisions, filled with array ops.

    Decision ``j`` fires at ``when[j]`` and moves to ``targets[j]`` with
    transition ``kept[j]``.  Its block of segments is a steady lead-in
    from the previous completion, when there is a gap, then its
    transition's decision-relative pieces gathered with ``np.repeat``
    and moved to ``when[j]``.  Rows from the horizon on are dropped
    (only the last block can reach it), which leaves the last row
    ending at the horizon, and a steady tail follows the last
    completion.  Exact: every piece bound is an integer offset, and no
    overhead power depends on the decision time.
    """
    combos, after = _positions(targets, initial)
    trs, kind = _positions(kept)
    when_a = np.asarray(when, np.int64)
    before = np.concatenate(([0], after))[:-1]
    durations = np.array(
        [(tr.boot_duration, tr.off_duration) for tr in trs], np.int64
    ).reshape(-1, 2)[kind]
    energies = np.array(
        [(tr.on_energy, tr.off_energy) for tr in trs], np.float64
    ).reshape(-1, 2)[kind]
    completes = when_a + durations[:, 0] + durations[:, 1]
    log = ReconfigurationLog(
        when_a, completes, before, after, durations[:, 0], durations[:, 1],
        energies[:, 0], energies[:, 1], combos,
    )

    # Every transition's pieces as (start, end, overhead, serves_target)
    # rows of one table; ``first`` is each transition's first row.
    n_pieces = np.array([len(tr.pieces) for tr in trs], np.int64)
    pieces = np.array(
        [p for tr in trs for p in tr.pieces], np.float64
    ).reshape(-1, 4)
    first = np.cumsum(n_pieces) - n_pieces
    prev = np.concatenate(([0], completes))[:-1]
    lead = when_a > prev
    count = n_pieces[kind]
    size = lead + count
    n = int(size.sum())
    # One spare slot for the steady tail.
    t_start = np.empty(n + 1, np.int64)
    serving = np.empty(n + 1, np.int64)
    overhead = np.zeros(n + 1)
    at = (np.cumsum(size) - size)[lead]
    t_start[at] = prev[lead]
    serving[at] = before[lead]
    # Piece rows, in decision order, shifted past the lead-ins so far.
    row = np.arange(int(count.sum()))
    skipped = np.cumsum(count) - count
    src = row + np.repeat(first[kind] - skipped, count)
    dst = row + np.repeat(np.cumsum(lead), count)
    got = pieces[src]
    t_start[dst] = np.repeat(when_a, count) + got[:, 0].astype(np.int64)
    serving[dst] = np.where(
        got[:, 3] != 0, np.repeat(after, count), np.repeat(before, count)
    )
    overhead[dst] = got[:, 2]
    n = int(t_start[:n].searchsorted(horizon))
    end = min(int(completes[-1]), horizon) if len(when) else 0
    if end < horizon:
        t_start[n] = end
        serving[n] = after[-1] if len(after) else 0
        n += 1
    segments = PlanSegments(
        t_start[:n], serving[:n], overhead[:n], combos, horizon
    )
    return SchedulePlan(
        horizon=horizon, initial=initial, segments=segments,
        reconfigurations=log,
    )
