"""Transition-aware scheduling (the paper's Sec. VI future work).

The baseline BML policy always jumps to the precomputed ideal combination
the moment the prediction asks for a different one.  The conclusion of
the paper sketches the refinement implemented here: "it is also worth
considering other hardware combinations than pre-computed BML
combinations as reconfiguration possibilities, and take in account their
corresponding overheads when taking reconfiguration decisions".

:class:`TransitionAwareScheduler` therefore evaluates, at every decision
point, a small set of candidate targets:

* the **ideal** combination for the predicted rate (the baseline's only
  choice);
* **staying** on the current combination, when it can still serve the
  prediction — hysteresis: a Big that would be shut down and re-booted
  minutes later is kept idling instead;
* the **union** of current and ideal (boot what is missing, shut nothing
  down) — halves the blocking window on oscillating loads.

Each candidate is scored over an amortisation horizon (default: the
prediction window) as *switching energy + serving energy over the
horizon*, and the cheapest feasible candidate wins.  With overheads worth
seconds of idling (Table I's Paravance boot costs 21.3 kJ — five minutes
of its idle draw) this prunes most of the reconfiguration thrash the
baseline exhibits on bursty traces, at zero QoS cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..sim.energy import combination_power
from ..workload.trace import LoadTrace
from .bml import BMLInfrastructure
from .combination import Combination, CombinationTable
from .prediction import LookAheadMaxPredictor, Predictor
from .reconfiguration import SchedulePlan, Transition, _ceil_s, build_plan, transition
from .scheduler import ScheduleOutcome, _decision_ids, _next_decision

__all__ = ["TransitionAwareScheduler", "transition_cost"]


def transition_cost(current: Combination, target: Combination) -> float:
    """Energy overhead (J) of moving from ``current`` to ``target``.

    Boot and shutdown energies of the changed machines, plus the idle
    energy of early-booted machines waiting for the slowest boot (the
    make-before-break hand-over).
    """
    if current == target:
        return 0.0
    tr = transition(current, target)
    profs = {p.name: p for p in current.profiles + target.profiles}
    cost = 0.0
    # names are unique across starts and stops: sorting restores diff order
    for name, d in sorted(tr.starts + tuple((n, -c) for n, c in tr.stops)):
        p = profs[name]
        if d > 0:
            waiting = tr.boot_duration - _ceil_s(p.on_time)
            cost += d * (p.on_energy + waiting * p.idle_power)
        else:
            cost += -d * p.off_energy
    return cost


@dataclass
class TransitionAwareScheduler:
    """Pro-active scheduler that amortises switching overheads.

    Drop-in alternative to :class:`~repro.core.scheduler.BMLScheduler`
    (same ``plan`` / ``plan_detailed`` interface, same plan executor).

    Parameters
    ----------
    infra / predictor / method:
        As in the baseline scheduler.
    horizon:
        Amortisation horizon in seconds; switching costs are weighed
        against serving-energy differences over this span.  ``None``
        (default) uses the predictor's window when it has one, else 378 s.
    consider_union:
        Also evaluate the no-shutdown union candidate.
    recheck_interval:
        When "stay" wins, the next evaluation happens after this many
        seconds (prevents re-scoring every second of a long oscillation).
    """

    infra: BMLInfrastructure
    predictor: Predictor = field(default_factory=LookAheadMaxPredictor)
    method: str = "greedy"
    horizon: Optional[int] = None
    consider_union: bool = True
    recheck_interval: int = 60

    def __post_init__(self) -> None:
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1 second")
        if self.recheck_interval < 1:
            raise ValueError("recheck_interval must be >= 1 second")

    def _effective_horizon(self) -> int:
        if self.horizon is not None:
            return self.horizon
        return int(getattr(self.predictor, "window", 378))

    # ------------------------------------------------------------------
    def plan(self, trace: LoadTrace) -> SchedulePlan:
        """Plan the whole trace (see :meth:`plan_detailed`)."""
        return self.plan_detailed(trace).plan

    def plan_detailed(self, trace: LoadTrace) -> ScheduleOutcome:
        """Decision loop with candidate scoring at every change point."""
        horizon = len(trace)
        window = self._effective_horizon()
        pred = self.predictor.series(trace)
        max_rate = float(max(pred.max(), trace.peak))
        table = self.infra.table(max_rate, self.method)
        loads = trace.values

        cid, changes, idx = _decision_ids(table, pred)

        initial = table.combo_at(idx[0])
        current = initial
        cur_id: Optional[int] = int(cid[0])

        decisions: List[Tuple[int, Combination, Transition]] = []
        t = 0
        while t < horizon:
            td = _next_decision(cid, changes, t, cur_id)
            if td is None:
                break
            ideal = table.combo_at(idx[td])
            target = self._choose(current, ideal, pred, loads, td, window, table)
            if target == current:
                # hysteresis: stay; look again a bit later (or at the next
                # combination change, whichever is sooner-but-after t)
                cur_id = None  # force re-evaluation at the next change
                t = td + self.recheck_interval
                continue
            tr = transition(current, target)
            decisions.append((td, target, tr))
            current = target
            # Ideal targets map to a table row, so the loop can jump to the
            # next change point; union targets are off-table and force a
            # re-evaluation at the next opportunity.
            cur_id = int(cid[td]) if target == ideal else None
            t = td + max(tr.boot_duration + tr.off_duration, 1)
        return ScheduleOutcome(
            plan=build_plan(horizon, initial, decisions),
            predictions=pred,
            table=table,
        )

    # ------------------------------------------------------------------
    def _choose(
        self,
        current: Combination,
        ideal: Combination,
        pred: np.ndarray,
        loads: np.ndarray,
        td: int,
        window: int,
        table: Optional[CombinationTable] = None,
    ) -> Combination:
        """Score the candidates over ``[td, td + window)`` and pick one.

        Two-phase scoring: a candidate serves until the prediction first
        exceeds its capacity; from that point the score charges the
        follow-up switch to the then-ideal combination plus that
        combination's serving energy — so "stay small and re-boot later"
        and "keep the big machine idling" are compared on equal terms.
        """
        end = min(td + window, len(loads))
        span_loads = loads[td:end]
        span_pred = pred[td:end]
        peak_needed = float(pred[td])

        candidates: List[Combination] = [ideal]
        if current.capacity >= peak_needed - 1e-9:
            candidates.append(current)
        if self.consider_union and current != ideal:
            union = current.union_max(ideal)
            if union != ideal and union != current:
                candidates.append(union)

        best = ideal
        best_cost = math.inf
        for cand in candidates:
            cost = transition_cost(current, cand) + self._two_phase_energy(
                cand, span_loads, span_pred, table
            )
            if cost < best_cost - 1e-9:
                best_cost = cost
                best = cand
        return best

    def _two_phase_energy(
        self,
        cand: Combination,
        span_loads: np.ndarray,
        span_pred: np.ndarray,
        table: Optional[CombinationTable],
    ) -> float:
        """Serving energy of ``cand`` with an anticipated follow-up switch."""
        over = span_pred > cand.capacity + 1e-9
        viol = int(np.argmax(over)) if np.any(over) else len(span_loads)
        served = np.minimum(span_loads[:viol], cand.capacity)
        energy = float(np.sum(combination_power(cand, served)))
        if viol < len(span_loads) and table is not None:
            successor = table.combination_for(float(span_pred[viol]))
            energy += transition_cost(cand, successor)
            tail = np.minimum(span_loads[viol:], successor.capacity)
            energy += float(np.sum(combination_power(successor, tail)))
        return energy
