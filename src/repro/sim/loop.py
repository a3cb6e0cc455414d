"""Event-driven data-center replay (segment-compressed + reference engines).

This is the from-first-principles counterpart of the vectorised
:func:`repro.sim.datacenter.execute_plan`: every machine is a real
:class:`~repro.sim.machine.Machine` FSM, boots and shutdowns are events in
an :class:`~repro.sim.events.EventQueue`, application instances are
deployed/retired/migrated explicitly, and a
:class:`~repro.sim.loadbalancer.LoadBalancer` re-splits the request rate
every second.  Energy comes out of the per-machine
:class:`~repro.sim.energy.EnergyMeter` ledger.

Decision rule (identical to :class:`~repro.core.scheduler.BMLScheduler`):
at every second outside a reconfiguration window, look up the combination
for the predicted rate; when it differs from the current one, boot the
missing machines, hand over the serving set once the slowest boot
completes (migrating instances off retiring machines), then shut the
surplus machines down.  No decision is taken before the window completes.

Three engines replay that rule:

* ``engine="reference"`` — the original O(seconds x machines) Python loop:
  one load-balancer round, one ledger write per machine, and one cluster
  power scan per second.  Kept as the executable specification.
* ``engine="segments"`` — the PR 5 segment-compressed engine.  Between
  events the serving set is piecewise-constant, so the replay advances
  boundary to boundary (machine-state events, instance-ready times,
  decision points found by scanning the predictor series against
  mixed-radix table row ids, exactly like the scheduler) and evaluates
  each steady segment with the memoised **serving-set kernel**
  (:func:`~repro.sim.loadbalancer.serving_set_kernel`): the exact
  per-machine balance/draw chain runs once over the window's *unique*
  rates, results are scattered back through the gather index, and the
  per-machine ledger writes are buffered by the **deferred array
  ledger** (:meth:`~repro.sim.energy.EnergyMeter.record_gather`) and
  settled in one ``np.cumsum`` pass per machine.  Every kernel mirrors
  the per-second float-operation order exactly — equal inputs get equal
  outputs by construction — so the produced series, ledger totals and
  counters are **bit-identical** to the reference engine (pinned by
  ``tests/properties/test_prop_replay.py``), while day-scale replays
  run orders of magnitude faster.
* ``engine="twophase"`` (default) — the two-phase control/evaluate
  engine.  The **control pass** is the same boundary-to-boundary walk,
  but pure and allocation-light: it runs the FSM/event bookkeeping and
  emits one ``(serving set, window)`` descriptor per steady segment —
  no kernel math, no energy settling (ledger transitions are journaled
  by the meter's batch mode).  The **evaluate pass** then groups *all*
  windows sharing a frozen serving set across the whole run — not just
  consecutive ones — concatenates their rate windows and runs each
  group through **one** kernel invocation, scattering results back
  through a run-level gather plan; the journal is settled afterwards by
  :meth:`~repro.sim.energy.EnergyMeter.record_batch_windows`, which
  merges each machine's adjacent windows into run-coalesced gathers, so
  its full contribution stream collapses to a handful of ``np.cumsum``
  passes over the whole run.  The kernel chain is elementwise over the
  rate values, so evaluating a group's concatenation is bit-identical
  to evaluating its windows one by one — the same property suite pins
  all three engines against each other.  Per-segment cost drops from
  O(serving machines) kernel work to emitting one descriptor, which is
  what makes year-scale replays a seconds-scale operation.

Reconfigurations themselves still run through the real FSM/event-queue
machinery in both engines: booting, migration round-robin, shutdown victim
selection and the energy ledger writes they imply are shared code, not
re-derived.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.combination import Combination, CombinationTable
from ..core.prediction import (
    LookAheadMaxPredictor,
    Predictor,
    cached_prediction_series,
)
from ..core.reconfiguration import Reconfiguration
from ..core.scheduler import _decision_ids, _next_decision
from ..workload.trace import LoadTrace
from .application import Application, ApplicationSpec
from .cluster import Cluster
from .energy import EnergyMeter
from .events import EventQueue
from .loadbalancer import LoadBalancer, ServingSetKernel, serving_set_kernel
from .machine import Machine, MachineState, _ceil_s
from .results import SimulationResult

__all__ = ["EventDrivenReplay", "ReplayStats"]


@dataclass
class ReplayStats:
    """Machine-level counters the fast path cannot produce.

    Engine-shape telemetry (segment, serving-set and batch counts) lives
    in ``SimulationResult.meta`` instead: these counters are part of the
    cross-engine bit-identity contract (``ref.stats == seg.stats``), and
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
    plan ``plans[plan_idx]`` (the ``(draw key | None, constant)`` pairs of
    the segment engine, deduplicated by content).  The meter holds the
    matching journal; descriptor ``j``'s marker is the integer ``j``.
    """

    descs: List[Tuple[int, int, int, int]]
    kernels: List[object]
    plans: List[Tuple[Tuple[Optional[str], float], ...]]
    compress: bool
    horizon: int


class EventDrivenReplay:
    """Replay a trace with explicit machines, instances and events."""

    def __init__(
        self,
        table: CombinationTable,
        trace: LoadTrace,
        predictor: Optional[Predictor] = None,
        app_spec: Optional[ApplicationSpec] = None,
        balancer: Optional[LoadBalancer] = None,
        inventory: Optional[Dict[str, int]] = None,
    ) -> None:
        if abs(trace.timestep - 1.0) > 1e-12:
            raise ValueError("the event-driven replay expects a 1 Hz trace")
        self.table = table
        self.trace = trace
        self.predictor = predictor or LookAheadMaxPredictor()
        self.app = Application(app_spec or ApplicationSpec(stop_time=0.0, start_time=0.0))
        self.balancer = balancer or LoadBalancer()
        self.meter = EnergyMeter()
        self.cluster = Cluster(
            list(table.profiles), meter=self.meter, inventory=inventory
        )
        self.queue = EventQueue()
        self.stats = ReplayStats()
        self._serving: List[Machine] = []
        self._reconfig_until = 0
        self._current = Combination.empty()
        self._events: List[Reconfiguration] = []
        self._twophase_plan: Optional[_ControlPlan] = None
        #: time of the scheduled (not yet executed) hand-over, if any —
        #: the only queued event kind whose callback reads machine loads.
        self._pending_handover: Optional[float] = None
        #: wall-time per phase (predict / control / evaluate / settle),
        #: surfaced as ``meta["phase_s"]`` for the CLI's ``--stats`` table.
        self._phase_s: Dict[str, float] = {}

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
                inst = self.app.instance_on(m)
                assert inst is not None
                inst.ready_at = now  # pre-warmed
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
            p = profs[name]
            off_dur = max(off_dur, int(math.ceil(p.off_time - 1e-9)))
        if boot_dur == 0:
            # Pure scale-down: the hand-over happens at the decision itself
            # (the queue only drains at the next loop step).
            self._handover(float(t), target, stops, booted)
        else:
            self._pending_handover = handover
            self.queue.schedule(handover, self._handover, handover, target, stops, booted)
        self._reconfig_until = handover + off_dur
        self._events.append(
            Reconfiguration(
                decided_at=t,
                completes_at=self._reconfig_until,
                before=self._current,
                after=target,
                boot_duration=boot_dur,
                off_duration=off_dur,
                on_energy=sum(
                    cnt * profs[n].on_energy for n, cnt in starts.items()
                ),
                off_energy=sum(
                    cnt * profs[n].off_energy for n, cnt in stops.items()
                ),
            )
        )
        self._current = target

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

    # -- precomputed reconfiguration schedule (two-phase control pass) ------
    def _reconfig_schedule(
        self,
        pred: np.ndarray,
        cid: np.ndarray,
        changes: np.ndarray,
        grid_idx: np.ndarray,
        initial: Combination,
    ) -> List[tuple]:
        """Resolve every reconfiguration the decision series implies.

        One compact pass over the *genuine* serving-set transitions —
        not the per-segment walk — replays the scheduler's decision rule
        symbolically: from each decision time the next one is the first
        second at or after the reconfiguration window's end whose
        combination id differs, exactly the ``_next_decision`` scan the
        walk used to run per segment.  Boot/off durations are pure
        profile math (``power_on`` sets ``transition_ends = now +
        _ceil_s(on_time)``, so the FSM walk's ``int(transition_ends -
        t)`` *is* ``_ceil_s(on_time)``), which lets every window,
        duration and energy figure of the
        :class:`~repro.core.reconfiguration.Reconfiguration` record be
        fixed here; :meth:`_start_scheduled` later performs only the
        irreducible FSM/event work.  Deltas between combination ids
        repeat heavily under periodic traces, so they are memoised per
        ``(from_id, to_id)`` pair.

        Entries: ``(t, target, starts, stops, boot_dur, off_dur, until,
        on_energy, off_energy)`` with ``starts``/``stops`` as ``(name,
        count)`` tuples in ``Combination.diff`` iteration order (the
        journal and energy-sum order of the FSM walk).
        """
        table = self.table
        profile = self.cluster.profile
        horizon = len(cid)
        sched: List[tuple] = []
        delta_memo: Dict[Tuple[int, int], tuple] = {}
        cur = initial
        cur_id = int(cid[0])
        d_from = 1
        pos = 0
        n_changes = len(changes)
        while d_from < horizon:
            if cid[d_from] != cur_id:
                td = d_from
            else:
                while pos < n_changes and changes[pos] <= d_from:
                    pos += 1
                td = None
                while pos < n_changes:
                    c = int(changes[pos])
                    if cid[c] != cur_id:
                        td = c
                        break
                    pos += 1
                if td is None:
                    break
            td = int(td)
            if cid[td] == -1:
                # Raises for rates beyond the table, like the walk would
                # at this decision second.
                table.combination_for(float(pred[td]))
            new_id = int(cid[td])
            info = delta_memo.get((cur_id, new_id))
            if info is None:
                target = table.combo_at(int(grid_idx[td]))
                delta = cur.diff(target)
                starts = tuple((n, d) for n, d in delta.items() if d > 0)
                stops = tuple((n, -d) for n, d in delta.items() if d < 0)
                boot_dur = 0
                on_energy = 0
                for name, cnt in starts:
                    p = profile(name)
                    dur = _ceil_s(p.on_time)
                    if dur > boot_dur:
                        boot_dur = dur
                    on_energy = on_energy + cnt * p.on_energy
                off_dur = 0
                off_energy = 0
                for name, cnt in stops:
                    p = profile(name)
                    dur = int(math.ceil(p.off_time - 1e-9))
                    if dur > off_dur:
                        off_dur = dur
                    off_energy = off_energy + cnt * p.off_energy
                info = (
                    target, starts, stops, boot_dur, off_dur,
                    on_energy, off_energy,
                )
                delta_memo[(cur_id, new_id)] = info
            target, starts, stops, boot_dur, off_dur, on_e, off_e = info
            until = td + boot_dur + off_dur
            sched.append(
                (td, target, starts, stops, boot_dur, off_dur, until,
                 on_e, off_e)
            )
            cur = target
            cur_id = new_id
            d_from = until if until > td else td + 1
        return sched

    def _start_scheduled(self, entry: tuple) -> None:
        """Execute one precomputed reconfiguration through the real FSM.

        The boot/hand-over/shutdown event machinery is shared with
        :meth:`_start_reconfiguration` — only the delta/duration/energy
        bookkeeping is skipped, because the schedule already fixed it.
        """
        (t, target, starts, stops, boot_dur, off_dur, until,
         on_energy, off_energy) = entry
        booted: List[Machine] = []
        boots = self.stats.boots
        for name, cnt in starts:
            machines = self.cluster.boot(name, cnt, t)
            booted.extend(machines)
            boots[name] = boots.get(name, 0) + cnt
            for m in machines:
                self.queue.schedule(
                    m.transition_ends, m.complete_boot, m.transition_ends
                )
        stops_d = dict(stops)
        if boot_dur == 0:
            # Pure scale-down: the hand-over happens at the decision
            # itself (the queue only drains at the next loop step).
            self._handover(float(t), target, stops_d, booted)
        else:
            handover = t + boot_dur
            self._pending_handover = handover
            self.queue.schedule(
                handover, self._handover, handover, target, stops_d, booted
            )
        self._reconfig_until = until
        self._events.append(
            Reconfiguration(
                decided_at=t,
                completes_at=until,
                before=self._current,
                after=target,
                boot_duration=boot_dur,
                off_duration=off_dur,
                on_energy=on_energy,
                off_energy=off_energy,
            )
        )
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

        Served through the process-wide series cache
        (:func:`repro.core.prediction.cached_prediction_series`): replays
        and sweep grid points sharing a workload pay the sliding-maximum
        filter once; the clamp is part of the cache key, so bounded and
        unbounded runs over the same trace never collide.
        """
        clamp = self.table.max_rate if self.cluster.is_bounded else None
        return cached_prediction_series(self.predictor, trace, clamp=clamp)

    def _ready_serving(self, t: int) -> List[Machine]:
        """Serving machines whose instance can take traffic at second ``t``."""
        return [
            m
            for m in self._serving
            if m.state is MachineState.ON
            and (inst := self.app.instance_on(m)) is not None
            and inst.is_ready(t)
        ]

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
            reconfigurations=self._events,
            meta=meta,
        )

    # -- main loop ------------------------------------------------------------
    def run(self, engine: str = "twophase") -> SimulationResult:
        """Replay the full trace; returns the same result type as the fast path.

        ``engine="twophase"`` (default) runs the two-phase
        control/evaluate engine; ``engine="segments"`` the PR 5
        segment-compressed engine; ``engine="reference"`` the original
        per-second Python loop.  All three produce bit-identical results;
        a replay object is single-use either way.
        """
        if engine == "twophase":
            return self._run_twophase()
        if engine == "segments":
            return self._run_segments()
        if engine == "reference":
            return self._run_reference()
        raise ValueError(f"unknown engine {engine!r}")

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
            ready = self._ready_serving(t)
            assignment = self.balancer.apply(float(trace.values[t]), ready, t)
            unserved[t] = assignment.unserved
            power[t] = self.cluster.total_power()
            n_on = self.cluster.n_in_state(MachineState.ON)
            self.stats.peak_machines_on = max(self.stats.peak_machines_on, n_on)
        self._phase_s["control"] = _time.perf_counter() - t1
        return self._finish(horizon, power, unserved, {"engine": "reference"})

    def _run_segments(self) -> SimulationResult:
        """Segment-compressed replay: batch every steady window onto numpy.

        The loop advances from boundary to boundary instead of second to
        second.  A boundary is the earliest of: the next event's effect
        time (events fire when the clock *reaches* them, so an event at
        ``tau`` becomes visible at step ``ceil(tau)``), the next decision
        point (first second at or after the reconfiguration window's end
        whose predicted combination id differs from the current one), the
        next instance-ready threshold on a serving machine, and the
        horizon.  Within a segment the serving set, machine states and
        instance readiness are constant, so the whole window collapses
        onto the vectorised balancer/ledger kernels.
        """
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

        cid, changes, grid_idx = _decision_ids(self.table, pred, strict=False)
        cur_id = int(cid[0])
        values = trace.values
        # One whole-trace check lets every window skip its own (the
        # reference raises on the first negative rate it balances; the
        # segment engine raises before starting, same user outcome).
        if np.any(values < 0):
            raise ValueError("rate must be >= 0")
        # Decide the unique-rate compression once for the whole trace
        # (rate repetition is a trace property, not a window property):
        # sample the head, compress when it repeats enough to pay for the
        # per-window sort.  Either choice is bit-identical.
        head = values[: min(len(values), 4096)]
        compress = len(np.unique(head)) <= 0.75 * len(head)
        kernel_memo: Dict[Tuple[str, ...], object] = {}
        machine_list: List[Machine] = []
        acc_plan: List[Tuple[Optional[str], float]] = []
        plan_key: Optional[Tuple[str, ...]] = None
        n_segments = 0
        t = 0
        while t < horizon:
            fired = self.queue.run_until(t)
            state_changed = fired > 0 or t == 0
            if t >= self._reconfig_until and cid[t] != cur_id:
                if cid[t] == -1:
                    # Raises for rates beyond the table, like the reference.
                    self.table.combination_for(float(pred[t]))
                # clipped_index applies combination_for's exact rounding,
                # so the precomputed grid index is the same lookup.
                target = self.table.combo_at(int(grid_idx[t]))
                if target != self._current:
                    self._start_reconfiguration(t, target)
                    state_changed = True
                cur_id = int(cid[t])

            # -- next boundary ------------------------------------------------
            b = horizon
            nxt = self.queue.peek_time()
            if nxt is not None:
                b = min(b, max(int(math.ceil(nxt - 1e-9)), t + 1))
            d_from = self._reconfig_until if t < self._reconfig_until else t + 1
            if d_from < b:
                td = _next_decision(cid, changes, d_from, cur_id)
                if td is not None:
                    b = min(b, td)
            if state_changed:
                # The serving list and the instance placement only move
                # inside reconfigurations/events; the machine pool only
                # grows there too.
                serving_pairs = [
                    (m, self.app.instance_on(m)) for m in self._serving
                ]
                machine_list = self.cluster.machines()
            for m, inst in serving_pairs:
                if inst is not None and inst.ready_at > t:
                    b = min(b, max(int(math.ceil(inst.ready_at - 1e-9)), t + 1))

            # -- evaluate the steady segment [t, b) --------------------------
            # The memoised serving-set kernel runs the exact per-machine
            # balance/draw chain on the window's *unique* rates only; the
            # gather index scatters every unique result back to per-second
            # order, so the per-second series stay bit-identical while the
            # window-length work collapses to a constant number of ops.
            ready = [
                m
                for m, inst in serving_pairs
                if m.state is MachineState.ON
                and inst is not None
                and inst.is_ready(t)
            ]
            # Two-level kernel memo: the replay-local dict avoids hashing
            # full profiles per segment (machine ids are stable within one
            # replay); the process-wide LRU underneath provides the
            # cross-replay reuse and the telemetry.
            memo_key = (self.balancer.strategy, *(m.machine_id for m in ready))
            kernel = kernel_memo.get(memo_key)
            if kernel is None:
                kernel = serving_set_kernel(self.balancer.strategy, ready)
                kernel_memo[memo_key] = kernel
            # The accumulation plan — which cluster position contributes a
            # draw series vs a constant — only changes when states move or
            # the ready set does, so it is rebuilt per epoch, not per
            # segment.  OFF machines are dropped from it: adding their
            # 0.0 draw is a float no-op the reference chain performs
            # without effect.
            if state_changed or memo_key != plan_key:
                ready_ids = frozenset(m.machine_id for m in ready)
                # ready machines are ON by construction, so the OFF
                # filter alone decides membership
                acc_plan = [
                    (m.machine_id if m.machine_id in ready_ids else None,
                     m.power_draw)
                    for m in machine_list
                    if m.state is not MachineState.OFF
                ]
                plan_key = memo_key
            if b - t <= 24 and self.balancer.strategy == "efficient":
                # Tiny transition windows: the exact per-second scalar
                # chain beats numpy dispatch overhead (bit-identical by
                # construction — it is the reference chain).
                s_loads, s_draws, s_unserved = kernel.evaluate_small(
                    values[t:b]
                )
                unserved[t:b] = s_unserved
                draw_cols = dict(zip(kernel.machine_ids, s_draws))
                power[t:b] = [
                    sum(
                        const if key is None else draw_cols[key][k]
                        for key, const in acc_plan
                    )
                    for k in range(b - t)
                ]
                for m, loads_c, draws_c in zip(ready, s_loads, s_draws):
                    m.load = float(
                        min(max(loads_c[-1], 0.0), m.profile.max_perf)
                    )
                    self.meter.record_gather(
                        m.machine_id, np.asarray(draws_c), None, t
                    )
            else:
                window = kernel.evaluate(
                    values[t:b], pre_validated=True, compress=compress
                )
                inverse = window.inverse
                unserved[t:b] = window.gather(window.unserved)
                # Power: same machine iteration order (and therefore float
                # accumulation order) as Cluster.total_power, one vector
                # op per machine over the unique rates instead of the
                # window.
                draw_of = dict(zip(kernel.machine_ids, window.draws))
                acc = np.zeros(window.n_unique)
                for draw_key, const in acc_plan:
                    acc += const if draw_key is None else draw_of[draw_key]
                power[t:b] = window.gather(acc)
                # Side effects: leave each serving machine holding the
                # window's final load (shutdown-victim ordering, drain
                # checks) and hand the deferred ledger the same gather
                # pairs — no per-machine per-second series is materialised
                # unless a consumer asks (KernelWindow.draw_series /
                # load_series).
                last = -1 if inverse is None else int(inverse[-1])
                for m, loads_u, draws_u in zip(ready, window.loads, window.draws):
                    m.load = float(
                        min(max(float(loads_u[last]), 0.0), m.profile.max_perf)
                    )
                    self.meter.record_gather(m.machine_id, draws_u, inverse, t)
            if state_changed:
                # Machine states only move when events fired or a
                # reconfiguration started this step; n_on is constant on
                # every other segment, so the peak cannot move either.
                n_on = self.cluster.n_in_state(MachineState.ON)
                self.stats.peak_machines_on = max(
                    self.stats.peak_machines_on, n_on
                )
            n_segments += 1
            t = b
        # The segment engine evaluates inline, so "control" here covers
        # the walk *and* the kernel math (the breakdown the two-phase
        # engine separates).
        self._phase_s["control"] = _time.perf_counter() - t1
        return self._finish(
            horizon, power, unserved,
            {
                "engine": "segments",
                "segments": n_segments,
                "serving_sets": len(kernel_memo),
                # one kernel invocation per segment — the count the
                # two-phase engine collapses to one per serving set
                "batches": n_segments,
            },
        )

    # -- two-phase engine --------------------------------------------------
    def _refresh_loads(
        self,
        ready: List[Machine],
        rate: float,
        kernel: Optional[ServingSetKernel] = None,
    ) -> None:
        """Leave ``ready`` machines holding the previous window's final load.

        The evaluating engines assign loads as a side effect of every window;
        the pure control pass only needs them where the FSM reads them
        (shutdown-victim ordering, drain checks), so it runs one scalar
        balance round there.  The scalar chain is bit-identical to the
        kernel's final column (pinned by the windowed-balancer property),
        and the clamp matches the segment engine's.  Loads are written
        directly — the journal, not this refresh, is what the meter sees.
        When the caller already holds the serving set's kernel, its cached
        fill order is used (:meth:`ServingSetKernel.loads_at`) instead of
        re-sorting machines on every refresh.
        """
        if not ready:
            return
        if kernel is not None:
            for m, share in zip(ready, kernel.loads_at(rate)):
                m.load = share if share <= m.profile.max_perf else m.profile.max_perf
                if m.load < 0.0:
                    m.load = 0.0
            return
        shares = self.balancer.balance(rate, ready).shares
        for m in ready:
            m.load = float(
                min(max(shares[m.machine_id], 0.0), m.profile.max_perf)
            )

    def _control_pass(self) -> _ControlPlan:
        """Phase 1: walk boundaries, emit descriptors, journal the meter.

        The same boundary-to-boundary semantics as ``_run_segments`` —
        events, decision points, instance-ready ceilings, epoch-cached
        serving pairs and accumulation plans — minus all evaluation:
        each steady segment becomes one ``(t, b, kernel, plan)``
        descriptor plus one marker in the meter's journal.  The walk is
        driven by the **precomputed reconfiguration schedule**
        (:meth:`_reconfig_schedule`): decision times, targets, windows
        and record fields are resolved up front in one pass over the
        decision series, so the per-boundary work left here is the
        irreducible FSM/event bookkeeping plus descriptor emission.
        Steady boundaries with no state change and no instance-ready
        threshold crossed reuse the previous segment's kernel/plan
        indices outright.  Machine loads are only refreshed (one scalar
        balance) at boundaries where a hand-over or decision reads them.
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
        head = values[: min(len(values), 4096)]
        compress = len(np.unique(head)) <= 0.75 * len(head)
        initial = self.table.combination_for(float(pred[0]))
        self.meter.begin_batch()
        self._materialise_initial(initial, 0.0)

        cid, changes, grid_idx = _decision_ids(self.table, pred, strict=False)
        sched = self._reconfig_schedule(pred, cid, changes, grid_idx, initial)

        descs: List[Tuple[int, int, int, int]] = []
        kernels: List[object] = []
        kernel_idx: Dict[Tuple[str, ...], int] = {}
        plans: List[Tuple[Tuple[Optional[str], float], ...]] = []
        plan_idx: Dict[Tuple[Tuple[Optional[str], float], ...], int] = {}
        machine_list: List[Machine] = []
        serving_pairs: List[Tuple[Machine, object]] = []
        serving_src: Optional[List[Machine]] = None
        n_mach_seen = -1
        prev_ready: List[Machine] = []
        prev_kernel: Optional[ServingSetKernel] = None
        plan_key: Optional[Tuple[str, ...]] = None
        k_idx = -1
        p_idx = -1
        #: sorted instance-ready thresholds of the current serving epoch;
        #: ``pr_i`` points past every threshold already reached.
        pending_ready: List[float] = []
        pr_i = 0
        #: The ready list is a pure function of (serving epoch, ``pr_i``):
        #: between serving-list replacements a serving machine never
        #: leaves ON (victims are stopped by the hand-over that also
        #: replaces the list) and its instance's ``ready_at`` is fixed,
        #: while ``is_ready`` uses the same ``now >= ready_at``
        #: comparison that advances ``pr_i``.  So the filter only needs
        #: re-running when either input changes — not on every segment.
        ready: List[Machine] = []
        memo_key: Tuple = ()
        ready_stale = True
        queue = self.queue
        heap = queue._heap  # stable list object; run_until mutates in place
        run_until = queue.run_until
        batch_mark = self.meter.batch_mark
        descs_append = descs.append
        instance_on = self.app.instance_on
        cluster = self.cluster
        strategy = self.balancer.strategy
        on_state = MachineState.ON
        off_state = MachineState.OFF
        sched_i = 0
        n_sched = len(sched)
        next_decide = sched[0][0] if n_sched else horizon
        t = 0
        while t < horizon:
            pr_seen = pr_i
            if t == next_decide:
                # Loads are only read by the hand-over path (victim
                # ordering, drain checks) and the decision that may start
                # one — boot/shutdown completions never look at them.
                self._refresh_loads(
                    prev_ready, float(values[t - 1]), prev_kernel
                )
                run_until(t)
                self._start_scheduled(sched[sched_i])
                sched_i += 1
                next_decide = (
                    sched[sched_i][0] if sched_i < n_sched else horizon
                )
                state_changed = True
            elif not heap:
                # Steady stretch: no events, and a pending hand-over
                # always has its event queued, so no load refresh either.
                state_changed = t == 0
            else:
                ph = self._pending_handover
                if ph is not None and ph <= t:
                    self._refresh_loads(
                        prev_ready, float(values[t - 1]), prev_kernel
                    )
                state_changed = run_until(t) > 0 or t == 0

            b = next_decide
            if heap:
                nxt = queue.peek_time()
                if nxt is not None:
                    nb = int(math.ceil(nxt - 1e-9))
                    if nb <= t:
                        nb = t + 1
                    if nb < b:
                        b = nb
            if state_changed:
                # The (machine, instance) pairing only changes when the
                # serving list is replaced (hand-over / initial set) and
                # the pool-order machine list only when a pool grows;
                # boot/shutdown completions mutate machine *state*, which
                # the per-segment ready filter re-reads anyway.
                if serving_src is not self._serving:
                    serving_src = self._serving
                    serving_pairs = [
                        (m, instance_on(m)) for m in serving_src
                    ]
                    pending_ready = sorted(
                        inst.ready_at
                        for _, inst in serving_pairs
                        if inst is not None
                    )
                    pr_i = 0
                    ready_stale = True
                if n_mach_seen != cluster.n_machines:
                    n_mach_seen = cluster.n_machines
                    machine_list = cluster.machines()
            n_pending = len(pending_ready)
            while pr_i < n_pending and pending_ready[pr_i] <= t:
                pr_i += 1
                ready_stale = True
            if pr_i < n_pending:
                nb = int(math.ceil(pending_ready[pr_i] - 1e-9))
                if nb <= t:
                    nb = t + 1
                if nb < b:
                    b = nb

            if not state_changed and pr_i == pr_seen and descs:
                # Nothing moved since the previous segment: same ready
                # set, same kernel, same plan — emit and advance.
                batch_mark(len(descs))
                descs_append((t, b, k_idx, p_idx))
                t = b
                continue

            if ready_stale:
                ready = [
                    m
                    for m, inst in serving_pairs
                    if m.state is on_state
                    and inst is not None
                    and inst.is_ready(t)
                ]
                memo_key = (strategy, *(m.machine_id for m in ready))
                k_idx = kernel_idx.get(memo_key)
                if k_idx is None:
                    k_idx = kernel_idx[memo_key] = len(kernels)
                    kernels.append(serving_set_kernel(strategy, ready))
                ready_stale = False
            if state_changed or memo_key != plan_key:
                # Ready machines contribute their kernel draw column; the
                # constant slot is unused for them (0.0 keeps plans that
                # differ only in stale ready-machine loads deduplicating).
                # The same walk doubles as the ON census for the peak
                # counter — no separate pool scan per state change.
                ready_ids = frozenset(m.machine_id for m in ready)
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
                plan_key = memo_key
                if state_changed and n_on > self.stats.peak_machines_on:
                    self.stats.peak_machines_on = n_on
            batch_mark(len(descs))
            descs_append((t, b, k_idx, p_idx))
            prev_ready = ready
            prev_kernel = kernels[k_idx]
            t = b
        # Pending handovers may fire inside _finish's run_until and read
        # loads; leave the final window's assignment in place first.
        self._refresh_loads(prev_ready, float(values[horizon - 1]), prev_kernel)
        self.queue.run_until(horizon)
        self._phase_s["control"] = _time.perf_counter() - t_wall1
        return _ControlPlan(
            descs=descs, kernels=kernels, plans=plans,
            compress=compress, horizon=horizon,
        )

    def _evaluate_pass(self, plan: _ControlPlan, values: np.ndarray):
        """Phase 2: one kernel invocation per serving set, per-window scatter.

        All descriptors sharing a kernel are evaluated on the
        concatenation of their rate windows; the kernel chain is
        elementwise over rate values, so each concatenated column equals
        the per-window evaluation bit for bit.  Results scatter back as
        one contiguous slice write per descriptor (``power[t:b]``) from
        the per-plan accumulated series; per-(group, plan) power
        accumulation reuses the segment engine's exact machine order.
        Returns the series plus per-descriptor ``(window, offset,
        length)`` views for the meter journal's resolver.
        """
        horizon = plan.horizon
        descs = plan.descs
        power = np.empty(horizon)
        unserved = np.zeros(horizon)
        groups: Dict[int, List[int]] = {}
        for j, desc in enumerate(descs):
            groups.setdefault(desc[2], []).append(j)
        seg_eval: List[Optional[Tuple[object, int, int]]] = [None] * len(descs)
        for k_idx, desc_ids in groups.items():
            kernel = plan.kernels[k_idx]
            n_segs = len(desc_ids)
            if n_segs == 1:
                cat = values[descs[desc_ids[0]][0]:descs[desc_ids[0]][1]]
            else:
                cat = np.concatenate(
                    [values[descs[j][0]:descs[j][1]] for j in desc_ids]
                )
            window = kernel.evaluate(
                cat, pre_validated=True, compress=plan.compress
            )
            inverse = window.inverse
            has_unserved = bool(window.unserved.any())
            # else: max(rate - served, 0.0) is +0.0 everywhere — exactly
            # the zeros the series was initialised with.
            unserved_u = window.unserved if has_unserved else None
            draw_of = dict(zip(kernel.machine_ids, window.draws))
            # Per-plan accumulated series over the group's unique rates:
            # same machine iteration (= float accumulation) order as
            # Cluster.total_power.  Constant terms — plan constants and
            # the kernel's elided constant columns — fold into a running
            # scalar until the first varying column: the scalar chain
            # performs the identical float adds each element would, so
            # the fold never changes a bit.
            plan_acc: Dict[int, object] = {}

            def _acc_for(p_idx: int):
                got = plan_acc.get(p_idx)
                if got is None:
                    acc: Optional[np.ndarray] = None
                    acc_scalar = 0.0
                    for draw_key, const in plan.plans[p_idx]:
                        if draw_key is None:
                            term = const
                        else:
                            d = draw_of[draw_key]
                            if d.strides == (0,):  # broadcast constant col
                                term = float(d[0]) if len(d) else 0.0
                            else:
                                term = d
                        if acc is not None:
                            acc += term
                        elif isinstance(term, float):
                            acc_scalar += term
                        else:
                            acc = acc_scalar + term
                    got = plan_acc[p_idx] = (
                        acc_scalar if acc is None else acc
                    )
                return got

            # Contiguous per-descriptor writes: power[t:b] is the plan
            # series gathered over the window's slice of the group's
            # inverse map — bit-identical to the run-level fancy scatter
            # (same elements, same positions) without materialising a
            # trace-length index array.
            off = 0
            for pos, j in enumerate(desc_ids):
                desc = descs[j]
                t, b = desc[0], desc[1]
                n = b - t
                acc = _acc_for(desc[3])
                if isinstance(acc, float):
                    power[t:b] = acc
                elif inverse is None:
                    power[t:b] = acc[off:off + n]
                else:
                    power[t:b] = acc[inverse[off:off + n]]
                if has_unserved:
                    if inverse is None:
                        unserved[t:b] = unserved_u[off:off + n]
                    else:
                        unserved[t:b] = unserved_u[inverse[off:off + n]]
                seg_eval[j] = (window, off, n)
                off += n
        return power, unserved, seg_eval, len(groups)

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
        descs = plan.descs

        def resolve(j: int):
            """Journal marker ``j``'s evaluated gather bundle."""
            window, off, n = seg_eval[j]
            return (
                window.kernel.machine_ids,
                window.draws,
                window.inverse,
                off,
                n,
                descs[j][0],
            )

        self.meter.record_batch_windows(resolve)
        self._phase_s["settle"] = _time.perf_counter() - t1
        return self._finish(
            plan.horizon, power, unserved,
            {
                "engine": "twophase",
                "segments": len(descs),
                "serving_sets": len(plan.kernels),
                "batches": n_batches,
            },
        )
