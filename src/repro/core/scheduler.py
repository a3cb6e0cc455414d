"""The paper's pro-active BML scheduler (Sec. V-C).

At every time step the scheduler takes the predicted load (by default the
maximum of the trace over a 378 s look-ahead window — twice the longest
switch-on duration), computes the corresponding ideal BML combination, and
— when that combination differs from the current one — decides a
reconfiguration.  While a reconfiguration is in flight no other decision
can be made; the next prediction window starts from the reconfiguration's
completion time.  When nothing changes, the window simply slides one time
step forward.

Implementation note: the decision loop never walks the trace second by
second.  Per-second combination ids are gathered from ids encoded once on
the table's rows (:func:`_decision_ids`), the loop jumps from one decision
to the next change point, and each distinct ``(from, to)`` transition's
blocking window — like its reconfiguration plan in
:func:`~repro.core.reconfiguration.build_plan` — is derived once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..workload.trace import LoadTrace
from .bml import BMLInfrastructure
from .combination import Combination, CombinationTable
from .prediction import LookAheadMaxPredictor, Predictor
from .reconfiguration import SchedulePlan, build_plan, reconfiguration_window

__all__ = ["BMLScheduler", "ScheduleOutcome"]


@dataclass(frozen=True)
class ScheduleOutcome:
    """A plan plus the planning-time series used to derive it."""

    plan: SchedulePlan
    predictions: np.ndarray
    table: CombinationTable


@dataclass
class BMLScheduler:
    """Pro-active scheduler producing a :class:`SchedulePlan` for a trace.

    Parameters
    ----------
    infra:
        The designed BML infrastructure (Steps 1-4 output).
    predictor:
        Load predictor; defaults to the paper's 378 s look-ahead maximum.
    method:
        Combination builder for sizing (``"greedy"`` = paper Step 5,
        ``"ideal"`` = exact DP).
    initial:
        Combination already running at t=0.  ``None`` (default) starts
        with the combination matching the first prediction, with no boot
        cost — the paper's replays likewise begin in steady state.
    inventory:
        Optional per-architecture machine limits (the paper's "existing
        heterogeneous infrastructure" variant).  Predictions beyond the
        inventory's total capacity are clamped to it — the shortfall shows
        up as unserved demand in the replay's QoS report.
    app_spec:
        Optional application constraints (Sec. III): ``max_instances``
        bounds every combination's machine count (node-bounded optimal
        DP), ``min_instances`` pads combinations for redundancy.
        Mutually exclusive with ``inventory``.
    """

    infra: BMLInfrastructure
    predictor: Predictor = field(default_factory=LookAheadMaxPredictor)
    method: str = "greedy"
    initial: Optional[Combination] = None
    inventory: Optional[Dict[str, int]] = None
    app_spec: Optional[object] = None

    def __post_init__(self) -> None:
        if self.inventory is not None and self.app_spec is not None:
            raise ValueError(
                "inventory limits and application constraints cannot be "
                "combined (pick one table construction)"
            )

    def _capacity_limit(self) -> float:
        assert self.inventory is not None
        return sum(
            p.max_perf * self.inventory.get(p.name, 0) for p in self.infra.ordered
        )

    def plan(self, trace: LoadTrace) -> SchedulePlan:
        """Plan the whole trace (see :meth:`plan_detailed`)."""
        return self.plan_detailed(trace).plan

    def plan_detailed(self, trace: LoadTrace) -> ScheduleOutcome:
        """Run the decision loop over ``trace`` and return plan + series."""
        horizon = len(trace)
        pred = self.predictor.series(trace)
        # All three table variants go through the infrastructure-level
        # cache: repeated plan() calls (ablation sweeps, replays) reuse the
        # memoised table instead of rebuilding it.
        if self.app_spec is not None:
            max_rate = float(max(pred.max(), trace.peak))
            table = self.infra.table(max_rate, self.method, app_spec=self.app_spec)
        elif self.inventory is None:
            max_rate = float(max(pred.max(), trace.peak))
            table = self.infra.table(max_rate, self.method)
        else:
            pred = np.minimum(pred, self._capacity_limit())
            max_rate = float(pred.max())
            table = self.infra.table(
                max_rate, self.method, inventory=self.inventory
            )

        # Combination identifier per time step: two predicted rates that
        # map to the same machine multiset must not trigger a decision.
        cid, changes, idx = _decision_ids(table, pred)

        initial = table.combo_at(idx[0]) if self.initial is None else self.initial
        current = initial
        cur_id = int(cid[0]) if self.initial is None else None

        # Blocking window per (from id, to id): ids fix both combinations.
        spans: Dict[Tuple[Optional[int], int], int] = {}
        decisions: List[Tuple[int, Combination]] = []
        t = 0
        while t < horizon:
            td = _next_decision(cid, changes, t, cur_id)
            if td is None:
                break
            new_id = int(cid[td])
            target = table.combo_at(idx[td])
            if target == current:
                # only an explicit initial combination (no id) can match
                cur_id = new_id
                t = td + 1
                continue
            decisions.append((td, target))
            span = spans.get((cur_id, new_id))
            if span is None:
                boot, off = reconfiguration_window(current, target)
                span = spans[cur_id, new_id] = max(boot + off, 1)
            current = target
            cur_id = new_id
            # No decision before the reconfiguration completes; the next
            # prediction window starts from the completion time.
            t = td + span
        return ScheduleOutcome(
            plan=build_plan(horizon, initial, decisions),
            predictions=pred,
            table=table,
        )


def _row_ids(counts: np.ndarray) -> np.ndarray:
    """Collapse machine-count rows into comparable integer identifiers.

    Rows are encoded with a mixed-radix key (one radix per column, sized to
    the column's value range), a single vectorised pass — unlike
    ``np.unique(counts, axis=0)``, which sorts all rows (O(n log n) over
    ~7.5 M rows for the World Cup replay).  Two ids are equal iff the rows
    are equal; nothing else is guaranteed.  Falls back to the sorting path
    in the (practically unreachable) case the key would overflow int64.
    """
    counts = np.asarray(counts)
    n, width = counts.shape
    if n == 0 or width == 0:
        return np.zeros(n, dtype=np.int64)
    mins = counts.min(axis=0)
    spans = [int(s) + 1 for s in (counts.max(axis=0) - mins)]
    total = 1
    for s in spans:
        total *= s
    if total > 2 ** 62:  # pragma: no cover - needs astronomically wide tables
        _, inverse = np.unique(counts, axis=0, return_inverse=True)
        return inverse.reshape(-1)
    weights = np.ones(width, dtype=np.int64)
    for j in range(width - 2, -1, -1):
        weights[j] = weights[j + 1] * spans[j + 1]
    return ((counts - mins).astype(np.int64) * weights).sum(axis=1)


def _decision_ids(
    table: CombinationTable, pred: np.ndarray, *, strict: bool = True
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-second combination ids, their change points and grid indices.

    Row ids are gathered through ``table.clipped_index``'s grid rounding:
    O(T) int64, no ``(T, n_arch)`` count matrix.  A rate beyond the table
    raises ``counts_for``'s :class:`CombinationError` (``strict``, the
    planners) or gets the id ``-1``, which the replay raises on only if
    that second is checked for a decision, like the per-second reference.
    """
    idx, oob = table.clipped_index(pred)
    cid = _row_ids(table.counts_array)[idx]
    if oob.any():
        if strict:
            table.counts_for(pred[oob])  # raises
        cid[oob] = -1
    changes = np.flatnonzero(cid[1:] != cid[:-1]) + 1
    return cid, changes, idx


def _next_decision(
    cid: np.ndarray,
    changes: np.ndarray,
    t: int,
    cur_id: Optional[int],
) -> Optional[int]:
    """First time >= t whose target combination differs from the current.

    ``cur_id = None`` forces a decision at ``t`` itself (used when an
    explicit initial combination was supplied and may differ from the
    first prediction's combination).
    """
    n = len(cid)
    if t >= n:
        return None
    if cur_id is None or cid[t] != cur_id:
        return t
    # jump through precomputed change points
    pos = int(changes.searchsorted(t, side="right"))
    while pos < len(changes):
        c = int(changes[pos])
        if cid[c] != cur_id:
            return c
        pos += 1
    return None
