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
the table's rows (:func:`_decision_ids`), and :class:`DecisionWalk` jumps
from one decision to the next change point, deriving each distinct
machine delta's transition once;
:func:`~repro.core.reconfiguration.build_plan` fills each plan's columns
from the decisions and transitions the walk hands it.  The event-driven
replay and the streaming engine run the same walk.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..workload.trace import LoadTrace
from .bml import BMLInfrastructure
from .combination import _BLOCK, Combination, CombinationTable
from .prediction import LookAheadMaxPredictor, Predictor
from .reconfiguration import SchedulePlan, Transition, build_plan, transition

__all__ = ["BMLScheduler", "ScheduleOutcome", "DecisionWalk"]


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
        pred, table = self.decision_inputs(trace)
        # Combination identifier per time step: two predicted rates that
        # map to the same machine multiset must not trigger a decision.
        cid, changes, idx = _decision_ids(table, pred)
        if self.initial is None:
            initial = table.combo_at(idx[0])
            walk = DecisionWalk(table, initial, int(cid[0]), int(idx[0]))
        else:
            # no id for an explicit combination: check t=0 itself
            initial = self.initial
            walk = DecisionWalk(table, initial, None, d_from=0)
        decisions = walk.advance(0, cid, idx, pred, changes)
        return ScheduleOutcome(
            plan=build_plan(len(trace), initial, decisions),
            predictions=pred,
            table=table,
        )

    def decision_inputs(
        self, trace: LoadTrace
    ) -> Tuple[np.ndarray, CombinationTable]:
        """The prediction series and the table the decisions read.

        With an inventory, predictions beyond its capacity are clamped
        and the table is built no larger.  All three table variants go
        through the infrastructure-level cache: repeated plan() calls
        (ablation sweeps, replays) reuse the memoised table instead of
        rebuilding it.
        """
        pred = self.predictor.series(trace)
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
        return pred, table


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

    Each ``_BLOCK``-sample block of ``pred`` is rounded to the grid by
    ``table.clipped_index`` and its row ids are gathered straight into
    the output, so the rounding's float temporaries stay cache-sized and
    no ``(T, n_arch)`` count matrix is made; the change scan is one pass
    over the ids.  A rate beyond the table raises ``counts_for``'s
    :class:`CombinationError`, naming the largest such rate (``strict``,
    the planners), or gets the id ``-1``, which the replay raises on only
    if that second is checked for a decision, like the per-second
    reference.
    """
    rows = _row_ids(table.counts_array)
    n = len(pred)
    idx = np.empty(n, dtype=np.int64)
    cid = np.empty(n, dtype=np.int64)
    oob: List[np.ndarray] = []
    for b0 in range(0, n, _BLOCK):
        ib, ob = table.clipped_index(pred[b0 : b0 + _BLOCK])
        idx[b0 : b0 + len(ib)] = ib
        rows.take(ib, out=cid[b0 : b0 + len(ib)], mode="clip")  # ib is clamped
        if ob.any():
            oob.append(np.flatnonzero(ob) + b0)
    if oob:
        where = np.concatenate(oob)
        if strict:
            table.counts_for(pred[where])  # raises
        cid[where] = -1
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


class DecisionWalk:
    """The BML decision rule (Sec. V-C) as one resumable walk over ids.

    From the current combination, the next decision is the first second
    at or after ``d_from`` whose combination id differs from ``cur_id``:
    it switches to that second's table row and takes no decision until
    the transition's boots and shutdowns are over (at least one second).
    ``cur_id = None`` (an explicit initial combination, which has no id)
    checks ``d_from`` itself, and a match there is no decision.

    The state is the current combination with its row id and grid index,
    ``d_from``, the table's count rows (read once, when the walk is
    made) and two caches.  ``memo`` holds ``(target grid index, its
    combination, transition)`` per ``(from_id, to_id)``: ids fix both
    combinations.  On a miss, ``deltas`` supplies the transition by
    machine delta, the difference of the two count rows: within one
    table the profiles are fixed and
    :func:`~repro.core.reconfiguration.transition` works in
    architecture-name order, so pairs with equal deltas get
    bit-identical transitions, and each distinct delta is derived once.
    Both caches are bounded by the table.  A walk whose current combination has no
    row (an explicit initial one) derives its first transition directly.
    :meth:`advance` takes the ids of any run of consecutive seconds, so
    the planner and the replay feed it the whole trace once and the
    streaming engine chunk by chunk, with the same decisions.
    """

    __slots__ = (
        "table", "counts", "current", "cur_id", "cur_idx", "d_from", "memo",
        "deltas",
    )

    def __init__(
        self,
        table: CombinationTable,
        current: Combination,
        cur_id: Optional[int],
        cur_idx: Optional[int] = None,
        d_from: int = 1,
    ) -> None:
        self.table = table
        self.counts = table.counts_array
        self.current = current
        self.cur_id = cur_id
        self.cur_idx = cur_idx
        self.d_from = d_from
        self.memo: Dict[
            Tuple[Optional[int], int], Tuple[int, Combination, Transition]
        ] = {}
        self.deltas: Dict[Tuple[int, ...], Transition] = {}

    def advance(
        self,
        base: int,
        cid: np.ndarray,
        grid_idx: np.ndarray,
        pred: np.ndarray,
        changes: Optional[np.ndarray] = None,
    ) -> List[Tuple[int, Combination, Transition]]:
        """Decisions within seconds ``[base, base + len(cid))``.

        ``cid``, ``grid_idx`` and ``pred`` hold the run's per-second ids,
        table grid indices and predictions; ``changes`` its change points
        (relative to ``base``; derived when omitted).  An id of ``-1``
        (a rate beyond the table, see :func:`_decision_ids`) raises the
        table's :class:`CombinationError` only if a decision lands on it.
        Returns ``(second, target combination, transition)`` triples,
        the decisions :func:`~repro.core.reconfiguration.build_plan`
        takes; the target is the table row of the memoised grid index.
        The walk resumes after the run on the next call.  A raise leaves
        the walk where it was before the call.
        """
        n = len(cid)
        memo = self.memo
        table = self.table
        cur_id, cur_idx, current = self.cur_id, self.cur_idx, self.current
        d_from = self.d_from
        chg: Optional[List[int]] = None  # change points, as Python ints
        pos = 0
        out: List[Tuple[int, Combination, Transition]] = []
        while True:
            s = d_from - base if d_from > base else 0
            if s >= n:
                break
            new_id = int(cid[s])
            if new_id == cur_id:
                # Jump to the next change point: every second before it
                # still carries the current id.
                if chg is None:
                    if changes is None:
                        changes = (cid[1:] != cid[:-1]).nonzero()[0] + 1
                    chg = changes.tolist()
                pos = bisect_right(chg, s, pos)
                if pos == len(chg):
                    d_from = base + n
                    break
                s = chg[pos]
                new_id = int(cid[s])
            td = base + s
            if new_id == -1:
                table.combination_for(float(pred[s]))  # raises
            step = memo.get((cur_id, new_id))
            if step is None:
                target = int(grid_idx[s])
                step = memo[cur_id, new_id] = (
                    target,
                    table.combo_at(target),
                    self._transition(current, cur_idx, target),
                )
            cur_idx, current, tr = step
            cur_id = new_id
            if not tr.starts and not tr.stops:
                # only an explicit initial combination (no id) can match
                d_from = td + 1
                continue
            out.append((td, current, tr))
            d_from = td + max(tr.boot_duration + tr.off_duration, 1)
        self.cur_id, self.cur_idx, self.current = cur_id, cur_idx, current
        self.d_from = d_from
        return out

    def _transition(
        self, current: Combination, cur_idx: Optional[int], target: int
    ) -> Transition:
        """The transition from ``current`` (row ``cur_idx``) to row
        ``target``, shared by every pair with the same machine delta."""
        after = self.table.combo_at(target)
        if cur_idx is None:
            return transition(current, after)
        counts = self.counts
        key = tuple((counts[target] - counts[cur_idx]).tolist())
        tr = self.deltas.get(key)
        if tr is None:
            tr = self.deltas[key] = transition(current, after)
        return tr
