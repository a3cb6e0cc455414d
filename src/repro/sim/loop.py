"""Event-driven data-center replay (two-phase + reference engines).

This is the from-first-principles counterpart of the vectorised
:func:`repro.sim.datacenter.execute_plan`: every machine is a real
:class:`~repro.sim.machine.Machine` FSM, boots and shutdowns are events in
an :class:`~repro.sim.events.EventQueue`, application instances are
deployed/retired/migrated explicitly (each serves from the second it is
deployed), and :func:`~repro.sim.loadbalancer.balance` re-splits the
request rate every second.  Energy comes out of the per-machine
:class:`~repro.sim.energy.EnergyMeter` ledger.

Decision rule (identical to :class:`~repro.core.scheduler.BMLScheduler`):
at every second outside a reconfiguration window, look up the combination
for the predicted rate; when it differs from the current one, boot the
missing machines, hand over the serving set once the slowest boot
completes (migrating instances off retiring machines), then shut the
surplus machines down.  No decision is taken before the window completes.

Two engines replay that rule:

* ``engine="reference"`` — the original O(seconds x machines) Python loop:
  one load-balancer round, one ledger write per machine, and one cluster
  power scan per second.  Kept as the executable specification.
* ``engine="twophase"`` (default) — the two-phase control/evaluate
  engine.  The **control pass** resolves every decision up front with
  the planner's :class:`~repro.core.scheduler.DecisionWalk` over the
  run's prediction series (computed once per run, uncached, and freed
  as soon as the walk is done with it), then advances boundary to
  boundary (machine-state events and decision points): between
  boundaries the serving set is
  piecewise-constant, so the pass runs only the FSM/event bookkeeping
  and emits one ``(serving set, window)`` descriptor per steady
  segment — no kernel math, no energy settling (ledger transitions are
  journaled by the meter's batch mode).  The **evaluate pass** then
  groups *all* windows sharing a frozen serving set across the whole
  run and runs each group through **one** serving-set kernel, built
  once per run (:func:`~repro.sim.loadbalancer.serving_set_kernel`),
  the exact per-machine balance/draw chain.  When every rate is a plain integer
  (request counts), the control pass hands over one **rate index**, the
  trace's rates as an ``intp`` array: each group's kernel runs once on
  the dense integer band between its lowest and highest rate, its
  columns are laid out by rate, and power is gathered block by block
  through the index.  Other traces evaluate each group's concatenated
  per-second windows.  The journal is settled afterwards by
  :meth:`~repro.sim.energy.EnergyMeter.record_batch_windows`, which
  extends each machine's open run across adjacent windows, so its
  contribution stream is one piece per run or transition; the fold adds
  gathered runs by block ``np.cumsum`` and constant runs by exact
  repeated-addition steps.  Every kernel mirrors the per-second
  float-operation order exactly — equal inputs get equal outputs by
  construction — so the produced series, ledger totals, records and
  counters are **bit-identical** to the reference engine (pinned by
  ``tests/properties/test_prop_replay.py``), while year-scale replays
  take seconds.

Reconfigurations run through the real FSM/event-queue machinery (boots,
migration round-robin, victim selection, ledger writes): the reference
engine runs each one; the control pass runs each distinct episode once
per pass and replays repeats from its record (``_control_pass``).
"""

from __future__ import annotations

import itertools
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.combination import _BLOCK, Combination, CombinationTable
from ..core.prediction import (
    LookAheadMaxPredictor,
    Predictor,
    cached_prediction_series,
)
from ..core.reconfiguration import (
    ReconfigurationLog,
    Transition,
    _ceil_s,
    _positions,
)
from ..core.scheduler import DecisionWalk, _decision_ids
from ..workload.trace import LoadTrace
from .application import AppInstance, Application, ApplicationSpec
from .cluster import Cluster
from .energy import EnergyMeter
from .events import EventQueue
from .loadbalancer import ServingSetKernel, balance, serving_set_kernel
from .machine import Machine, MachineState
from .results import SimulationResult

__all__ = ["EventDrivenReplay", "ReplayStats"]


@dataclass
class ReplayStats:
    """Machine-level counters the fast path cannot produce.

    Engine-shape telemetry (segment, serving-set and batch counts) lives
    in ``SimulationResult.meta`` instead: these counters are part of the
    cross-engine bit-identity contract (``ref.stats == two.stats``), and
    the reference engine has no segments to count.
    """

    boots: Dict[str, int] = field(default_factory=dict)
    shutdowns: Dict[str, int] = field(default_factory=dict)
    migrations: int = 0
    peak_machines_on: int = 0


@dataclass
class _ControlPlan:
    """Everything the control pass emits for the evaluate pass.

    ``descs[j] = (t, b, kernel_idx, plan_idx)`` describes steady segment
    ``[t, b)`` served by ``kernels[kernel_idx]`` under power-accumulation
    plan ``plans[plan_idx]`` (``(draw key | None, constant)`` pairs in
    cluster order, deduplicated by content).  The meter holds the
    matching journal; descriptor ``j``'s marker is the integer ``j``.
    ``rates`` is the trace's rate index (:func:`_rate_index`), or
    ``None`` unless every rate is a plain integer below the horizon.
    """

    descs: List[Tuple[int, int, int, int]]
    kernels: List[object]
    plans: List[Tuple[Tuple[Optional[str], float], ...]]
    rates: Optional[np.ndarray]
    horizon: int
    #: reconfiguration episodes replayed from a template / recorded
    templated: int
    templates: int


class _Episode(NamedTuple):
    """One reconfiguration episode, recorded relative to its decision.

    Times are offsets from the decision second, journal markers are
    descriptor offsets, and the last descriptor's end is the next
    decision.
    """

    journal: tuple  #: ``set_power`` tuples and markers
    descs: tuple
    machines: tuple  #: (machine, state, load, booted, stopped)
    born: tuple  #: (machine, start offset) per new instance
    migrations: int
    peak: int  #: peak ON census
    serving: list


def _rate_index(values: np.ndarray, out: np.ndarray) -> Optional[np.ndarray]:
    """``out`` holding the rates as integers, or ``None`` if they do not fit.

    One pass over ``_BLOCK``-sample blocks fills ``out``, a trace-length
    integer buffer the caller has no more use for, and stops at the
    first block holding a rate that is not an integer, a ``-0.0`` (the
    index would make it ``0``) or a rate not below the trace length.
    That bound keeps every column the evaluate pass lays out by rate no
    longer than the trace.
    """
    n = len(values)
    for b0 in range(0, n, _BLOCK):
        block = values[b0:b0 + _BLOCK]
        if block.max() >= n:
            return None
        ib = out[b0:b0 + _BLOCK]
        ib[...] = block
        if not np.array_equal(ib, block) or np.signbit(block).any():
            return None
    return out


def _constants(draws) -> tuple:
    """The kernel's stride-0 (constant) columns as their Python floats.

    Done once per group: the plan folds and the meter's journal walk
    then need no NumPy scalar work for them.
    """
    return tuple(
        d.item(0) if d.strides == (0,) and len(d) else d for d in draws
    )


def _plan_series(plan, draw_of):
    """A power-accumulation plan's series over a group's evaluated rates.

    Same machine iteration (= float accumulation) order as
    ``Cluster.total_power``.  Constant terms — plan constants and the
    kernel's elided constant columns — fold into a running scalar until
    the first varying column: the scalar chain performs the identical
    float adds each element would, so the fold never changes a bit.  A
    plan with no varying column comes back as its Python float.
    """
    acc: Optional[np.ndarray] = None
    acc_scalar = 0.0
    for draw_key, const in plan:
        term = const if draw_key is None else draw_of[draw_key]
        if acc is not None:
            acc += term
        elif isinstance(term, float):
            acc_scalar += term
        else:
            acc = acc_scalar + term
    return acc_scalar if acc is None else acc


def _by_rate(band: np.ndarray, lo: int) -> np.ndarray:
    """``band`` (rates ``lo, lo + 1, …``) laid out so index ``r`` holds
    rate ``r``; the slots below ``lo`` are never written nor read."""
    out = np.empty(lo + len(band))
    out[lo:] = band
    return out


def _evaluate_by_rate(plan: _ControlPlan):
    """The evaluate pass over the rate index, or ``None`` if too wide.

    A group's varying draw columns and its unserved series are laid out
    by integer rate (:func:`_by_rate`), so every meter bundle gathers
    through the rate index itself at offset ``t``.  ``unserved`` is
    written only where a group has unserved demand, so the zero pages of
    the others stay untouched.
    """
    rates = plan.rates
    horizon = plan.horizon
    descs = plan.descs
    cols = np.fromiter(
        itertools.chain.from_iterable(descs), np.intp, 4 * len(descs)
    ).reshape(-1, 4)
    starts, kidx = cols[:, 0], cols[:, 2]
    n_plans = len(plan.plans)
    # The (kernel, plan) pairs in use, sorted by kernel, and each
    # group's first pair.
    pairs, pair_of = np.unique(
        kidx * n_plans + cols[:, 3], return_inverse=True
    )
    pair_k = pairs // n_plans
    firsts = np.flatnonzero(np.diff(pair_k, prepend=-1))
    lo = np.full(len(plan.kernels), horizon, np.intp)
    hi = np.zeros(len(plan.kernels), np.intp)
    np.minimum.at(lo, kidx, np.minimum.reduceat(rates, starts))
    np.maximum.at(hi, kidx, np.maximum.reduceat(rates, starts))
    ks = pair_k[firsts]
    if (hi[ks] - lo[ks] + 1).sum() > horizon:
        # The dense bands would hold more rates than the trace has
        # seconds: the per-second windows are the smaller evaluation.
        return None
    widths = hi[pair_k] - lo[pair_k] + 1
    ends = np.cumsum(widths)
    stack = np.empty(ends[-1])
    power = np.empty(horizon)
    unserved = np.zeros(horizon)
    bundles = {}
    for group in np.split(np.arange(len(pairs)), firsts[1:]):
        k = int(pair_k[group[0]])
        k_lo, k_hi = int(lo[k]), int(hi[k])
        kernel = plan.kernels[k]
        window = kernel.evaluate(
            np.arange(k_lo, k_hi + 1, dtype=float), pre_validated=True
        )
        draws = _constants(window.draws)
        draw_of = dict(zip(kernel.machine_ids, draws))
        for q in group.tolist():
            stack[ends[q] - widths[q]:ends[q]] = _plan_series(
                plan.plans[pairs[q] % n_plans], draw_of
            )
        by_rate = tuple(
            d if isinstance(d, float) else _by_rate(d, k_lo) for d in draws
        )
        bundles[k] = (kernel.machine_ids, by_rate, rates)
        if window.unserved.any():
            col = _by_rate(window.unserved, k_lo)
            for j in np.flatnonzero(kidx == k).tolist():
                t, b = descs[j][0], descs[j][1]
                col.take(rates[t:b], out=unserved[t:b])
    # Block by block: each second's position in its pair's series is
    # its rate plus the pair's base, repeated over the descriptor.
    base = (ends - widths - lo[pair_k])[pair_of]
    b0s = np.arange(0, horizon, _BLOCK)
    k0s = np.searchsorted(starts, b0s, "right") - 1
    k1s = np.searchsorted(starts, b0s + _BLOCK)
    for b0, k0, k1 in zip(b0s.tolist(), k0s.tolist(), k1s.tolist()):
        b1 = min(b0 + _BLOCK, horizon)
        edges = np.concatenate(([b0], starts[k0 + 1:k1], [b1]))
        idx = np.repeat(base[k0:k1], np.diff(edges))
        idx += rates[b0:b1]
        stack.take(idx, out=power[b0:b1], mode="clip")  # idx is in range
    seg_eval = [bundles[k] + (t, b - t, t) for t, b, k, _ in descs]
    return power, unserved, seg_eval, len(bundles)


def _evaluate_per_second(plan: _ControlPlan, values: np.ndarray):
    """The evaluate pass over each group's concatenated rate windows.

    Results scatter back as one contiguous slice write per descriptor
    (``power[t:b]``) from the per-plan series; the meter bundles slice
    the group's columns at the descriptor's offset in the concatenation.
    """
    horizon = plan.horizon
    descs = plan.descs
    power = np.empty(horizon)
    unserved = np.zeros(horizon)
    groups: Dict[int, List[int]] = {}
    for j, desc in enumerate(descs):
        groups.setdefault(desc[2], []).append(j)
    seg_eval: List[Optional[tuple]] = [None] * len(descs)
    for k_idx, desc_ids in groups.items():
        kernel = plan.kernels[k_idx]
        if len(desc_ids) == 1:
            cat = values[descs[desc_ids[0]][0]:descs[desc_ids[0]][1]]
        else:
            cat = np.concatenate(
                [values[descs[j][0]:descs[j][1]] for j in desc_ids]
            )
        window = kernel.evaluate(cat, pre_validated=True)
        # else: max(rate - served, 0.0) is +0.0 everywhere — exactly
        # the zeros the series was initialised with.
        unserved_w = window.unserved if window.unserved.any() else None
        draws = _constants(window.draws)
        machine_ids = kernel.machine_ids
        draw_of = dict(zip(machine_ids, draws))
        series: Dict[int, object] = {}
        off = 0
        for j in desc_ids:
            t, b, _, p_idx = descs[j]
            n = b - t
            acc = series.get(p_idx)
            if acc is None:
                acc = series[p_idx] = _plan_series(plan.plans[p_idx], draw_of)
            power[t:b] = acc if isinstance(acc, float) else acc[off:off + n]
            if unserved_w is not None:
                unserved[t:b] = unserved_w[off:off + n]
            seg_eval[j] = (machine_ids, draws, None, off, n, t)
            off += n
    return power, unserved, seg_eval, len(groups)


class EventDrivenReplay:
    """Replay a trace with explicit machines, instances and events."""

    def __init__(
        self,
        table: CombinationTable,
        trace: LoadTrace,
        predictor: Optional[Predictor] = None,
        inventory: Optional[Dict[str, int]] = None,
    ) -> None:
        if abs(trace.timestep - 1.0) > 1e-12:
            raise ValueError("the event-driven replay expects a 1 Hz trace")
        self.table = table
        self.trace = trace
        self.predictor = predictor or LookAheadMaxPredictor()
        self.app = Application(ApplicationSpec())
        self.meter = EnergyMeter()
        self.cluster = Cluster(
            list(table.profiles), meter=self.meter, inventory=inventory
        )
        self.queue = EventQueue()
        self.stats = ReplayStats()
        self._serving: List[Machine] = []
        self._reconfig_until = 0
        self._current = Combination.empty()
        #: one ``Reconfiguration``-field tuple per decision
        self._events: List[tuple] = []
        self._twophase_plan: Optional[_ControlPlan] = None
        #: time of the scheduled (not yet executed) hand-over, if any —
        #: the only queued event kind whose callback reads machine loads.
        self._pending_handover: Optional[float] = None
        #: wall-time per phase (predict / control / evaluate / settle),
        #: surfaced as ``meta["phase_s"]`` for the CLI's ``--stats`` table.
        self._phase_s: Dict[str, float] = {}
        self._ran = False

    # -- setup -----------------------------------------------------------
    def _materialise_initial(self, combo: Combination, now: float) -> None:
        """Bring the initial combination ON instantly (steady-state start)."""
        for prof, count in combo.items:
            for _ in range(count):
                m = self.cluster.acquire_off_machine(prof.name, now)
                # Skip the boot: the replay starts in steady state, like the
                # paper's scenarios (and the fast path's initial segment).
                m.state = MachineState.ON
                m.transition_ends = None
                self.meter.set_power(m.machine_id, m.power_draw, now)
                self.app.deploy(m, now)
        self._current = combo
        self._serving = self.cluster.machines()

    # -- reconfiguration ---------------------------------------------------
    def _start_reconfiguration(self, t: int, target: Combination) -> None:
        delta = self._current.diff(target)
        starts = {n: d for n, d in delta.items() if d > 0}
        stops = {n: -d for n, d in delta.items() if d < 0}
        booted: List[Machine] = []
        boot_dur = 0
        for name, cnt in starts.items():
            machines = self.cluster.boot(name, cnt, t)
            booted.extend(machines)
            for m in machines:
                assert m.transition_ends is not None
                boot_dur = max(boot_dur, int(m.transition_ends - t))
                self.queue.schedule(m.transition_ends, m.complete_boot, m.transition_ends)
                self.stats.boots[name] = self.stats.boots.get(name, 0) + 1
        handover = t + boot_dur
        off_dur = 0
        profs = {
            name: self.cluster.profile(name)
            for name in (*starts, *stops)
        }
        for name in stops:
            off_dur = max(off_dur, _ceil_s(profs[name].off_time))
        if boot_dur == 0:
            # Pure scale-down: the hand-over happens at the decision itself
            # (the queue only drains at the next loop step).
            self._handover(float(t), target, stops, booted)
        else:
            self._pending_handover = handover
            self.queue.schedule(handover, self._handover, handover, target, stops, booted)
        self._log_reconfiguration(
            t, target, boot_dur, off_dur,
            sum(cnt * profs[n].on_energy for n, cnt in starts.items()),
            sum(cnt * profs[n].off_energy for n, cnt in stops.items()),
        )

    def _handover(
        self,
        now: float,
        target: Combination,
        stops: Dict[str, int],
        booted: List[Machine],
    ) -> None:
        """Hand the serving role to the target set; drain and stop surplus."""
        self._pending_handover = None
        # Retire instances from victims and stop the machines.
        for name, cnt in stops.items():
            victims = self.cluster.pick_shutdown_victims(name, cnt)
            for m in victims:
                if self.app.instance_on(m) is not None:
                    if booted:
                        # Stateless migration onto one of the new machines
                        # (round robin); pure scale-downs just retire.
                        tgt = booted[self.stats.migrations % len(booted)]
                        if self.app.instance_on(tgt) is None:
                            self.app.migrate(m, tgt, now)
                            self.stats.migrations += 1
                        else:
                            self.app.retire(m, now)
                    else:
                        self.app.retire(m, now)
                else:  # machine had no instance (drained earlier)
                    m.assign_load(0.0, now)
                end = m.power_off(now)
                self.queue.schedule(end, m.complete_shutdown, end)
                self.stats.shutdowns[name] = self.stats.shutdowns.get(name, 0) + 1
        # Ensure every ON machine of the target set hosts an instance
        # (one cluster scan serves both the deploy check and the new
        # serving list).
        serving = self.cluster.machines_in_state(MachineState.ON)
        for m in serving:
            if self.app.instance_on(m) is None:
                self.app.deploy(m, now)
        self._serving = serving

    def _start_scheduled(
        self, t: int, target: Combination, tr: Transition
    ) -> None:
        """Execute one decision of the walk through the real FSM.

        The boot/hand-over/shutdown event machinery is shared with
        :meth:`_start_reconfiguration`; the delta, durations and energies
        come from the walk's :class:`~repro.core.reconfiguration.Transition`.
        ``power_on`` sets ``transition_ends = now + _ceil_s(on_time)``, so
        the reference engine's ``int(transition_ends - t)`` *is* the
        transition's boot duration.
        """
        booted: List[Machine] = []
        boots = self.stats.boots
        for name, cnt in tr.starts:
            machines = self.cluster.boot(name, cnt, t)
            booted.extend(machines)
            boots[name] = boots.get(name, 0) + cnt
            for m in machines:
                self.queue.schedule(
                    m.transition_ends, m.complete_boot, m.transition_ends
                )
        stops = dict(tr.stops)
        if tr.boot_duration == 0:
            # Pure scale-down: the hand-over happens at the decision
            # itself (the queue only drains at the next loop step).
            self._handover(float(t), target, stops, booted)
        else:
            handover = t + tr.boot_duration
            self._pending_handover = handover
            self.queue.schedule(
                handover, self._handover, handover, target, stops, booted
            )
        self._log_reconfiguration(
            t, target, tr.boot_duration, tr.off_duration, tr.on_energy,
            tr.off_energy,
        )

    def _log_reconfiguration(
        self, t: int, target: Combination, boot_duration: int,
        off_duration: int, on_energy: float, off_energy: float,
    ) -> None:
        """Log the decision taken at ``t``; ``target`` becomes current."""
        self._reconfig_until = t + boot_duration + off_duration
        self._events.append((
            t, self._reconfig_until, self._current, target, boot_duration,
            off_duration, on_energy, off_energy,
        ))
        self._current = target

    # -- shared pieces ------------------------------------------------------
    def _prediction_series(self, trace: LoadTrace) -> np.ndarray:
        """The predictor's series, inventory-clamped like the planner's.

        With bounded machine pools the scheduler clamps predictions to
        the owned capacity and builds the table no larger (the shortfall
        surfaces as unserved demand); the replay applies the same clamp,
        so demand beyond the data center's capacity selects the table's
        largest combination instead of raising an out-of-range lookup.
        Unbounded clusters get the raw series — their table always
        covers the trace peak, and a genuine overshoot should still
        raise.

        Computed once per run and not cached
        (:func:`repro.core.prediction.cached_prediction_series`): the
        two-phase engine frees the series after its decision walk, the
        only reader, so it is not resident through evaluate and settle.
        """
        clamp = self.table.max_rate if self.cluster.is_bounded else None
        return cached_prediction_series(self.predictor, trace, clamp=clamp)

    def _finish(self, horizon: int, power, unserved, extra_meta) -> SimulationResult:
        # Let in-flight transitions finish for exact energy accounting.
        t0 = _time.perf_counter()
        self.queue.run_until(horizon)
        self.meter.finalize(horizon)
        meter_energy = self.meter.total_energy
        self._phase_s["settle"] = (
            self._phase_s.get("settle", 0.0) + _time.perf_counter() - t0
        )
        meta = {
            "meter_energy_j": meter_energy,
            "migrations": self.stats.migrations,
            "peak_machines_on": self.stats.peak_machines_on,
        }
        meta.update(extra_meta)
        # Wall-clock telemetry, deliberately outside the bit-identity
        # surface: ScenarioResult does not persist meta and the property
        # suite compares meter_energy_j only.
        meta["phase_s"] = dict(self._phase_s)
        return SimulationResult(
            scenario="event-driven BML",
            trace_name=self.trace.name,
            timestep=self.trace.timestep,
            power=power,
            unserved=unserved,
            reconfigurations=self._log(),
            meta=meta,
        )

    def _log(self) -> ReconfigurationLog:
        """``ReconfigurationLog.of(self._events)``, interning ``after`` only.

        :meth:`_log_reconfiguration` makes every ``before`` the previous
        ``after`` and the first one the initial combination, so the
        initial's position followed by every ``after`` but the last is
        the ``before`` column, in the same first-seen order.
        """
        if not self._events:
            return ReconfigurationLog.of(())
        cols = tuple(zip(*self._events))
        combos, after = _positions(cols[3], first=cols[2][0])
        before = np.concatenate(([0], after[:-1]))
        return ReconfigurationLog(
            cols[0], cols[1], before, after, *cols[4:], combos
        )

    # -- main loop ------------------------------------------------------------
    def run(self, engine: str = "twophase") -> SimulationResult:
        """Replay the full trace; returns the same result type as the fast path.

        ``engine="twophase"`` (default) runs the two-phase
        control/evaluate engine; ``engine="reference"`` the original
        per-second Python loop.  Both produce bit-identical results; a
        replay object is single-use either way, and a second call raises
        :class:`RuntimeError`.
        """
        if engine not in ("twophase", "reference"):
            raise ValueError(f"unknown engine {engine!r}")
        if self._ran:
            raise RuntimeError(
                "EventDrivenReplay is single-use: build a new one to rerun"
            )
        self._ran = True
        if engine == "twophase":
            return self._run_twophase()
        return self._run_reference()

    def _run_reference(self) -> SimulationResult:
        """The per-second FSM loop — the executable specification."""
        trace = self.trace
        horizon = len(trace)
        t0 = _time.perf_counter()
        pred = self._prediction_series(trace)
        t1 = _time.perf_counter()
        self._phase_s["predict"] = t1 - t0
        power = np.empty(horizon)
        unserved = np.zeros(horizon)

        initial = self.table.combination_for(float(pred[0]))
        self._materialise_initial(initial, 0.0)

        for t in range(horizon):
            self.queue.run_until(t)
            if t >= self._reconfig_until:
                target = self.table.combination_for(float(pred[t]))
                if target != self._current:
                    self._start_reconfiguration(t, target)
            serving = [
                m
                for m in self._serving
                if m.state is MachineState.ON
                and self.app.instance_on(m) is not None
            ]
            assignment = balance(float(trace.values[t]), serving)
            for m in serving:
                m.assign_load(assignment.shares[m.machine_id], t)
            unserved[t] = assignment.unserved
            power[t] = self.cluster.total_power()
            n_on = self.cluster.n_in_state(MachineState.ON)
            self.stats.peak_machines_on = max(self.stats.peak_machines_on, n_on)
        self._phase_s["control"] = _time.perf_counter() - t1
        return self._finish(horizon, power, unserved, {"engine": "reference"})

    # -- two-phase engine --------------------------------------------------
    def _refresh_loads(
        self,
        ready: List[Machine],
        rate: float,
        kernel: Optional[ServingSetKernel],
    ) -> None:
        """Leave the serving machines ``ready`` holding the previous
        window's final load.

        The reference engine assigns loads as a side effect of every
        second; the pure control pass only needs them where the FSM reads
        them (shutdown-victim ordering, drain checks), so it runs one
        scalar balance round there on the serving set's kernel
        (:meth:`ServingSetKernel.loads_at`, the exact float chain of
        :func:`~repro.sim.loadbalancer.balance` on the kernel's cached
        fill order), with :meth:`Machine.assign_load`'s clamp.  Loads are
        written directly — the journal, not this refresh, is what the
        meter sees.  ``kernel`` is the one built for ``ready``; it is only
        ``None`` before the first window, when ``ready`` is empty.
        """
        if not ready:
            return
        for m, share in zip(ready, kernel.loads_at(rate)):
            m.load = share if share <= m.profile.max_perf else m.profile.max_perf
            if m.load < 0.0:
                m.load = 0.0

    def _record_episode(
        self, recording: Tuple, peak: int, descs: List
    ) -> _Episode:
        """The episode the FSM just ran from the recording's decision."""
        _, _, t, jstart, dstart, migrations, _ = recording
        journal = tuple(
            e - dstart if type(e) is int else (e[0], e[1], e[2] - t)
            for e in self.meter._batch[jstart:]
        )
        # Every machine is ON or OFF at both ends of an episode, so each
        # one it touched was booted (ends ON) or stopped (ends OFF).
        by_id = {m.machine_id: m for m in self.cluster.machines()}
        on = MachineState.ON
        touched = [
            by_id[mid]
            for mid in dict.fromkeys(e[0] for e in journal if type(e) is tuple)
        ]
        # Retiring deletes and deploying appends: the started instances
        # (one per booted machine) are the newest ones, in id order.
        insts = list(self.app._instances.values())
        born = insts[len(insts) - sum(m.state is on for m in touched):]
        return _Episode(
            journal=journal,
            descs=tuple(
                (d[0] - t, d[1] - t, d[2], d[3]) for d in descs[dstart:]
            ),
            machines=tuple(
                (m, m.state, m.load, m.state is on, m.state is not on)
                for m in touched
            ),
            born=tuple((i.machine, i.started_at - t) for i in born),
            migrations=self.stats.migrations - migrations,
            peak=peak,
            serving=self._serving,
        )

    def _replay_episode(
        self, ep: _Episode, t: int, nxt: int, target: Combination,
        tr: Transition, descs: List,
    ) -> None:
        """Apply ``ep`` at decision ``t``; the next decision is ``nxt``."""
        d0 = len(descs)
        self.meter._batch.extend([
            e + d0 if type(e) is int else (e[0], e[1], e[2] + t)
            for e in ep.journal
        ])
        descs.extend([(a + t, b + t, k, p) for a, b, k, p in ep.descs])
        last = descs[-1]
        descs[-1] = (last[0], nxt, last[2], last[3])
        app = self.app
        for m, state, load, booted, stopped in ep.machines:
            m.state = state
            m.load = load
            m.transition_ends = None
            m.boots += booted
            m.shutdowns += stopped
            if stopped:  # a victim: its instance retired
                del app._instances[app._by_machine.pop(m.machine_id)]
        for m, rel in ep.born:
            iid = f"{app.spec.name}-{next(app._ids)}"
            app._instances[iid] = AppInstance(iid, m, rel + t)
            app._by_machine[m.machine_id] = iid
        stats = self.stats
        for name, cnt in tr.starts:
            stats.boots[name] = stats.boots.get(name, 0) + cnt
        for name, cnt in tr.stops:
            stats.shutdowns[name] = stats.shutdowns.get(name, 0) + cnt
        stats.migrations += ep.migrations
        if ep.peak > stats.peak_machines_on:
            stats.peak_machines_on = ep.peak
        self._serving = ep.serving
        self._log_reconfiguration(
            t, target, tr.boot_duration, tr.off_duration, tr.on_energy,
            tr.off_energy,
        )

    def _control_pass(self) -> _ControlPlan:
        """Phase 1: walk boundaries, emit descriptors, journal the meter.

        Boundaries are events and decision points; each steady segment
        becomes one ``(t, b, kernel, plan)`` descriptor plus one marker in
        the meter's journal.  The decisions come from one
        :class:`~repro.core.scheduler.DecisionWalk` over the whole
        decision series — times, targets, windows and record fields
        resolved up front — so the per-boundary work left here is the
        irreducible FSM/event bookkeeping plus descriptor emission.
        Boundaries where no event fired and no decision was taken reuse
        the previous segment's kernel and plan indices outright.  An
        instance serves from its deployment second, and ``_handover``
        deploys on every ON machine of the list it installs, so the
        serving list is the kernel's machine set: the kernel is looked up
        only when a hand-over, or the initial set, replaces that list.
        Machine loads are only refreshed (one scalar balance) at
        boundaries where a hand-over or decision reads them.

        **Episode templates.**  An episode is everything from one
        decision to the next.  It is replayed from a record of this pass
        when the queue is empty, no hand-over is pending and every
        non-OFF machine serves (so every machine is ON or OFF), and both
        ``t + boot + off`` and the record's last descriptor start fall
        before the next decision; otherwise the FSM runs it.  The key is
        (kernel index, plan index, target combination (by identity),
        shutdown victims, ``stats.migrations % n_booted``), and it is
        complete: the kernel fixes the ON set, hence the combination and
        the transition; the booted machines are the first OFF ones in
        pool order (a record creates no machine, and pools only grow);
        the victims are picked by the hand-over's own code from the loads
        it refreshes; the migration counter fixes the round-robin
        targets.  Every other input is a constant or the decision second
        plus an integer, so offsets reproduce times exactly.  A key is
        recorded on its second sighting, and its victims are only
        computed from then on.  Picking the victims refreshes the serving
        set's loads at the hand-over's rate, as the hand-over does, so a
        hit leaves every machine the load the FSM run would leave it.
        """
        trace = self.trace
        horizon = len(trace)
        t_wall0 = _time.perf_counter()
        pred = self._prediction_series(trace)
        t_wall1 = _time.perf_counter()
        self._phase_s["predict"] = t_wall1 - t_wall0
        values = trace.values
        if np.any(values < 0):
            raise ValueError("rate must be >= 0")
        initial = self.table.combination_for(float(pred[0]))
        self.meter.begin_batch()
        self._materialise_initial(initial, 0.0)

        cid, changes, grid_idx = _decision_ids(self.table, pred, strict=False)
        walk = DecisionWalk(self.table, initial, int(cid[0]), int(grid_idx[0]))
        sched = walk.advance(0, cid, grid_idx, pred, changes)
        # The walk was their only reader: the predictions and ids go,
        # and the grid indices' resident pages are reused for the rate
        # index.
        del pred, cid, changes

        descs: List[Tuple[int, int, int, int]] = []
        kernels: List[ServingSetKernel] = []
        kernel_idx: Dict[Tuple[str, ...], int] = {}
        plans: List[Tuple[Tuple[Optional[str], float], ...]] = []
        plan_idx: Dict[Tuple[Tuple[Optional[str], float], ...], int] = {}
        machine_list: List[Machine] = []
        n_mach_seen = -1
        #: the serving list the current kernel was looked up for
        ready: List[Machine] = []
        kernel: Optional[ServingSetKernel] = None
        k_idx = -1
        p_idx = -1
        #: Episode templates of this pass: key without the victims ->
        #: ``None`` once sighted, then victims -> record.
        templates: Dict[Tuple, Optional[Dict[Tuple, _Episode]]] = {}
        recording: Optional[Tuple] = None
        plan_steady: List[bool] = []  # per plan: every non-OFF one serves
        on_hi = 0  # peak ON census since the recording started
        n_templated = n_templates = 0
        journal = self.meter._batch
        queue = self.queue
        heap = queue._heap  # stable list object; run_until mutates in place
        run_until = queue.run_until
        batch_mark = self.meter.batch_mark
        descs_append = descs.append
        cluster = self.cluster
        on_state = MachineState.ON
        off_state = MachineState.OFF
        sched_i = 0
        n_sched = len(sched)
        next_decide = sched[0][0] if n_sched else horizon
        t = 0
        while t < horizon:
            if t == next_decide:
                _, target, tr = sched[sched_i]
                sched_i += 1
                next_decide = (
                    sched[sched_i][0] if sched_i < n_sched else horizon
                )
                steady = (
                    not heap
                    and self._pending_handover is None
                    and plan_steady[p_idx]
                )
                if recording is not None:
                    if steady and recording[-1] == cluster.n_machines:
                        recording[0][recording[1]] = self._record_episode(
                            recording, on_hi, descs
                        )
                        n_templates += 1
                    recording = None
                if steady and (
                    t + tr.boot_duration + tr.off_duration < next_decide
                ):
                    n_boot = sum(c for _, c in tr.starts)
                    part = (
                        # The target by identity: the walk hands out one
                        # object per (current id, target id) pair and the
                        # kernel fixes the current id, so under one
                        # kernel an object stands for one grid index.
                        k_idx, p_idx, id(target),
                        self.stats.migrations % n_boot
                        if n_boot and tr.stops else 0,
                    )
                    group = templates.get(part, False)
                    if group is False:  # first sighting: remember only
                        templates[part] = None
                    else:
                        if group is None:
                            group = templates[part] = {}
                        # The victims, as the hand-over will pick them
                        # from the loads it will refresh.
                        self._refresh_loads(
                            ready,
                            float(values[t + tr.boot_duration - 1]),
                            kernel,
                        )
                        vkey = tuple(
                            m.machine_id
                            for name, cnt in tr.stops
                            for m in cluster.pick_shutdown_victims(name, cnt)
                        )
                        ep = group.get(vkey)
                        if ep is None:
                            on_hi = 0
                            recording = (
                                group, vkey, t, len(journal), len(descs),
                                self.stats.migrations, cluster.n_machines,
                            )
                        elif ep.descs[-1][0] < next_decide - t:
                            self._replay_episode(
                                ep, t, next_decide, target, tr,
                                descs,
                            )
                            n_templated += 1
                            # The episode's last descriptor is served by
                            # the serving list it left.
                            _, _, k_idx, p_idx = ep.descs[-1]
                            ready = self._serving
                            kernel = kernels[k_idx]
                            t = next_decide
                            continue
                # Loads are only read by the hand-over path (victim
                # ordering, drain checks) and the decision that may start
                # one — boot/shutdown completions never look at them.
                self._refresh_loads(ready, float(values[t - 1]), kernel)
                run_until(t)
                self._start_scheduled(t, target, tr)
                state_changed = True
            elif not heap:
                # Steady stretch: no events, and a pending hand-over
                # always has its event queued, so no load refresh either.
                state_changed = t == 0
            else:
                ph = self._pending_handover
                if ph is not None and ph <= t:
                    self._refresh_loads(ready, float(values[t - 1]), kernel)
                state_changed = run_until(t) > 0 or t == 0

            b = next_decide
            if heap:
                nxt = queue.peek_time()
                nb = _ceil_s(nxt)
                if nb <= t:
                    nb = t + 1
                if nb < b:
                    b = nb
            if not state_changed:
                # Nothing moved since the previous segment: same serving
                # set, same kernel, same plan — emit and advance.
                batch_mark(len(descs))
                descs_append((t, b, k_idx, p_idx))
                t = b
                continue

            if ready is not self._serving:
                ready = self._serving
                key = tuple(m.machine_id for m in ready)
                k_idx = kernel_idx.get(key)
                if k_idx is None:
                    k_idx = kernel_idx[key] = len(kernels)
                    kernels.append(serving_set_kernel(ready))
                kernel = kernels[k_idx]
            # Boot/shutdown completions mutate machine state, not the
            # pool-order machine list; that changes only when a pool grows.
            if n_mach_seen != cluster.n_machines:
                n_mach_seen = cluster.n_machines
                machine_list = cluster.machines()
            # Serving machines contribute their kernel draw column; the
            # constant slot is unused for them (0.0 keeps plans that
            # differ only in stale serving-machine loads deduplicating).
            # The same walk doubles as the ON census for the peak
            # counter — no separate pool scan per state change.
            ready_ids = frozenset(kernel.machine_ids)
            n_on = 0
            items = []
            for m in machine_list:
                state = m.state
                if state is off_state:
                    continue
                if state is on_state:
                    n_on += 1
                items.append(
                    (m.machine_id, 0.0)
                    if m.machine_id in ready_ids
                    else (None, m.power_draw)
                )
            acc_plan = tuple(items)
            p_idx = plan_idx.get(acc_plan)
            if p_idx is None:
                p_idx = plan_idx[acc_plan] = len(plans)
                plans.append(acc_plan)
                plan_steady.append(len(items) == len(ready))
            if n_on > on_hi:
                on_hi = n_on
            if n_on > self.stats.peak_machines_on:
                self.stats.peak_machines_on = n_on
            batch_mark(len(descs))
            descs_append((t, b, k_idx, p_idx))
            t = b
        # Pending handovers may fire inside _finish's run_until and read
        # loads; leave the final window's assignment in place first.
        self._refresh_loads(ready, float(values[horizon - 1]), kernel)
        self.queue.run_until(horizon)
        rates = _rate_index(values, grid_idx)
        self._phase_s["control"] = _time.perf_counter() - t_wall1
        return _ControlPlan(
            descs=descs, kernels=kernels, plans=plans,
            rates=rates, horizon=horizon,
            templated=n_templated, templates=n_templates,
        )

    def _evaluate_pass(self, plan: _ControlPlan, values: np.ndarray):
        """Phase 2: one kernel invocation per serving set.

        Descriptors sharing a kernel form a group.  With a rate index
        (``plan.rates``), each group's kernel runs on the dense integer
        band between the group's lowest and highest rate, found by
        ``reduceat`` over the descriptor starts, so its constant-column
        elision sees the extremes the per-second windows have.  Each
        (kernel, plan) pair's power series is laid end to end in one
        array, and ``power`` is gathered from it block by block through
        the index (:func:`_evaluate_by_rate`).  Without an index, or when
        the groups' bands together hold more rates than the trace has
        seconds, each group runs on its concatenated per-second windows
        (:func:`_evaluate_per_second`).  The kernel chain is elementwise,
        so both are bit-identical to the per-second evaluation.

        Returns the power and unserved series, each descriptor's gather
        bundle ``(machine_ids, draws, inverse, offset, length, t_start)``
        (what the meter journal's resolver returns for its marker, with
        each constant draw column as its Python float) and the number of
        groups.
        """
        if plan.rates is not None:
            out = _evaluate_by_rate(plan)
            if out is not None:
                return out
        return _evaluate_per_second(plan, values)

    def _run_twophase(self) -> SimulationResult:
        """Two-phase replay: pure control walk, then grouped evaluation."""
        plan = self._control_pass()
        self._twophase_plan = plan  # introspection (descriptor-purity test)
        t0 = _time.perf_counter()
        power, unserved, seg_eval, n_batches = self._evaluate_pass(
            plan, self.trace.values
        )
        t1 = _time.perf_counter()
        self._phase_s["evaluate"] = t1 - t0
        # Journal marker ``j`` resolves to descriptor ``j``'s bundle.
        self.meter.record_batch_windows(seg_eval.__getitem__)
        self._phase_s["settle"] = _time.perf_counter() - t1
        return self._finish(
            plan.horizon, power, unserved,
            {
                "engine": "twophase",
                "segments": len(plan.descs),
                "serving_sets": len(plan.kernels),
                "batches": n_batches,
                "templated_episodes": plan.templated,
                "episode_templates": plan.templates,
            },
        )
