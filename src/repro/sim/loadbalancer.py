"""Load balancer: distributes the request rate over running instances.

The paper's target application is a stateless web server behind a load
balancer, so "the load [can] be distributed among several web server
instances".  Two strategies are provided:

* ``"efficient"`` (default) — fill machines by increasing marginal power
  cost (the slope of their linear model); this is the assignment the
  analytical power model assumes, so the event-driven simulator and the
  vectorised fast path agree exactly;
* ``"proportional"`` — classic capacity-weighted spreading (every machine
  gets the same utilisation fraction); under the linear model the *group*
  power is identical for homogeneous groups, slightly higher for
  heterogeneous mixes, which the ablation benches quantify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.profiles import ArchitectureProfile
from .machine import Machine

__all__ = [
    "LoadBalancer",
    "Assignment",
    "ServingSetKernel",
    "KernelWindow",
    "serving_set_kernel",
    "serving_kernel_cache_stats",
]


@dataclass(frozen=True)
class Assignment:
    """Outcome of one balancing round."""

    shares: Dict[str, float]  # machine_id -> rate
    served: float
    unserved: float


class LoadBalancer:
    """Stateless request-rate splitter over ON machines."""

    def __init__(self, strategy: str = "efficient") -> None:
        if strategy not in ("efficient", "proportional"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy

    def balance(self, rate: float, machines: Sequence[Machine]) -> Assignment:
        """Split ``rate`` over ``machines``; excess demand is unserved."""
        if rate < 0:
            raise ValueError("rate must be >= 0")
        capacity = sum(m.profile.max_perf for m in machines)
        served = min(rate, capacity)
        shares: Dict[str, float] = {m.machine_id: 0.0 for m in machines}
        if served > 0 and machines:
            if self.strategy == "efficient":
                remaining = served
                for m in sorted(machines, key=lambda m: m.profile.slope):
                    take = min(remaining, m.profile.max_perf)
                    shares[m.machine_id] = take
                    remaining -= take
                    if remaining <= 1e-12:
                        break
            else:  # proportional
                frac = served / capacity
                for m in machines:
                    shares[m.machine_id] = frac * m.profile.max_perf
        return Assignment(
            shares=shares, served=served, unserved=max(rate - served, 0.0)
        )

    def apply(
        self, rate: float, machines: Sequence[Machine], now: float
    ) -> Assignment:
        """Balance and push the shares onto the machines (metered)."""
        assignment = self.balance(rate, machines)
        for m in machines:
            m.assign_load(assignment.shares[m.machine_id], now)
        return assignment


# ---------------------------------------------------------------------------
# Serving-set composite kernels (one evaluation per serving set)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelWindow:
    """Rates evaluated on a serving-set kernel, element for element.

    Every array is aligned with the evaluated rates: ``loads[i][k]``,
    ``draws[i][k]`` and ``unserved[k]`` belong to ``rates[k]``.  A column
    the rate band cannot vary (a machine filled to capacity at every
    rate, or one no rate reaches) is a zero-copy stride-0 broadcast.
    The replay evaluates either a group's dense integer band, which it
    lays out by rate, or its per-second windows end to end.
    """

    kernel: "ServingSetKernel"
    loads: Tuple[np.ndarray, ...]  #: per machine
    draws: Tuple[np.ndarray, ...]  #: per machine
    unserved: np.ndarray


class ServingSetKernel:
    """Composite balance/power evaluator for one frozen serving set.

    Collapses the per-machine chain of per-second
    :meth:`LoadBalancer.balance` rounds + ``idle + slope * load`` draws
    into one object whose per-set constants (capacity sum, stable
    slope-sort order, per-machine linear-model coefficients) are computed
    once and reused across every segment served by the same set —
    typically hundreds of segments per replay, since the replay cycles
    through a handful of combinations.  ``evaluate`` runs the **exact**
    scalar float-operation chain elementwise, so equal rates get equal
    outputs by construction: evaluating each integer rate of a band once
    and gathering by rate is bit-identical to the per-second evaluation.
    """

    __slots__ = (
        "strategy",
        "machine_ids",
        "capacity",
        "_order",
        "_max_perfs",
        "_slopes",
        "_idles",
    )

    def __init__(
        self,
        strategy: str,
        members: Sequence[Tuple[str, ArchitectureProfile]],
    ) -> None:
        self.strategy = strategy
        self.machine_ids: Tuple[str, ...] = tuple(mid for mid, _ in members)
        profiles = [prof for _, prof in members]
        # Same Python-sum order as LoadBalancer.balance's capacity.
        self.capacity = sum(p.max_perf for p in profiles)
        # Stable sort by slope = the scalar fill order.
        self._order = sorted(range(len(profiles)), key=lambda i: profiles[i].slope)
        self._max_perfs = [p.max_perf for p in profiles]
        self._slopes = [p.slope for p in profiles]
        self._idles = [p.idle_power for p in profiles]

    def evaluate(
        self, rates: np.ndarray, pre_validated: bool = False
    ) -> KernelWindow:
        """Evaluate rates through the composite chain, element for element.

        ``pre_validated=True`` skips the non-negativity check — for
        callers that validated the full series once up front (the replay
        checks the whole trace before segmenting it into windows).
        """
        rates = np.asarray(rates, dtype=float)
        if not pre_validated and np.any(rates < 0):
            raise ValueError("rate must be >= 0")
        served = np.minimum(rates, self.capacity)
        n = len(self.machine_ids)
        loads: List[Optional[np.ndarray]] = [None] * n
        draws: List[Optional[np.ndarray]] = [None] * n
        if n:
            if self.strategy == "efficient":
                loads, draws = self._evaluate_efficient(rates, served)
            elif self.capacity > 0:  # proportional
                frac = served / self.capacity
                loads = [frac * mp for mp in self._max_perfs]
                draws = [
                    self._idles[i] + self._slopes[i] * loads[i]
                    for i in range(n)
                ]
            else:  # degenerate set: nothing can be served
                loads = [np.zeros(len(rates)) for _ in range(n)]
                draws = [np.full(len(rates), self._idles[i]) for i in range(n)]
        return KernelWindow(
            kernel=self,
            loads=tuple(loads),
            draws=tuple(draws),
            unserved=np.maximum(rates - served, 0.0),
        )

    def _evaluate_efficient(
        self, rates: np.ndarray, served: np.ndarray
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """The ``"efficient"`` fill chain with constant-column elision.

        The masked per-machine chain (``take = where(active,
        min(remaining, cap), 0)``; ``remaining -= take``; ``active &=
        remaining > 1e-12``) is monotone non-decreasing in the input rate
        at every step: ``min``, subtraction by a constant and the
        ``> 1e-12`` threshold all preserve order, and while an element is
        active it follows the pure chain.  Two consequences anchor the
        shortcut below (both are exact statements about the float chain,
        not approximations):

        * while the **minimum**-rate element is still active, every
          element is active and its ``remaining`` is bounded below by the
          minimum element's — so if the minimum element's remainder
          covers a machine's capacity, *every* element takes exactly
          ``max_perf`` there and the whole column is one constant;
        * once the **maximum**-rate element goes inactive, every element
          is inactive — the machine (and all later ones in fill order)
          takes exactly ``0.0`` and draws exactly ``idle``.

        Only machines whose capacity boundary the window's rate band
        actually straddles ("marginal" machines — typically one or two
        per window) run the elementwise masked chain; constant columns
        are emitted as zero-copy broadcast views.  Equal inputs get equal
        outputs through identical float ops, so the result is
        bit-identical to the full masked chain (pinned by the kernel and
        replay property suites).
        """
        nu = len(rates)
        mps, slopes, idles = self._max_perfs, self._slopes, self._idles
        n = len(self.machine_ids)
        loads: List[Optional[np.ndarray]] = [None] * n
        draws: List[Optional[np.ndarray]] = [None] * n
        if nu:
            lo = float(rates.min())
            hi = float(rates.max())
        else:
            lo = hi = 0.0
        cap = self.capacity
        # Scalar mirrors of the chain at the two extreme rates.  These are
        # real window elements, so each mirror is exact by construction.
        r_lo = lo if lo < cap else cap
        r_hi = hi if hi < cap else cap
        act_lo = r_lo > 0 and nu > 0
        act_hi = r_hi > 0 and nu > 0
        last = self._order[-1]
        pending: List[float] = []  # constant takes not yet applied to arrays
        remaining: Optional[np.ndarray] = None  # materialised lazily
        active: Optional[np.ndarray] = None  # None == "every element active"
        zeros: Optional[np.ndarray] = None
        for i in self._order:
            c = mps[i]
            if not act_hi:
                # Max-rate element broke out => all elements broke out:
                # the scalar chain's take is 0.0 everywhere, so load 0 and
                # the exact idle draw (idle + slope * 0.0 == idle) follow
                # without running the masked chain; no state updates occur.
                if zeros is None:
                    zeros = np.broadcast_to(np.float64(0.0), nu)
                loads[i] = zeros
                draws[i] = np.broadcast_to(np.float64(idles[i]), nu)
                continue
            if act_lo and r_lo >= c:
                # Min-rate element still active with remainder >= capacity
                # => every element is active with remainder >= capacity:
                # take == max_perf exactly, one constant column.
                loads[i] = np.broadcast_to(np.float64(c), nu)
                draws[i] = np.broadcast_to(np.float64(idles[i] + slopes[i] * c), nu)
                if i != last:
                    if remaining is None:
                        pending.append(c)
                    else:
                        remaining = remaining - c
                        act_arr = remaining > 1e-12
                        active = act_arr if active is None else active & act_arr
                    r_lo -= c
                    act_lo = r_lo > 1e-12
                    r_hi -= c
                    act_hi = r_hi > 1e-12
                continue
            # Marginal machine: the rate band straddles this capacity
            # boundary (or the break threshold) — run the masked chain.
            if remaining is None:
                remaining = served.copy()
                if pending:
                    # Every element was provably active through each
                    # pending full-capacity take, so only the last
                    # subtraction can have dropped anyone from the mask.
                    for pc in pending:
                        remaining = remaining - pc
                    pending.clear()
                    if not act_lo:
                        active = remaining > 1e-12
                elif not act_lo:
                    active = served > 0
            if active is None:
                # All elements active: where(all_true, x, 0) == x, and on
                # the first fill inactive elements have remaining == 0.0
                # so min(0, cap) is already the masked 0.0.
                take = np.minimum(remaining, c)
            else:
                take = np.where(active, np.minimum(remaining, c), 0.0)
            loads[i] = take
            draws[i] = idles[i] + slopes[i] * take
            if i != last:
                remaining = remaining - take
                act_arr = remaining > 1e-12
                active = act_arr if active is None else active & act_arr
                if act_lo:
                    t = r_lo if r_lo < c else c
                    r_lo -= t
                    act_lo = r_lo > 1e-12
                if act_hi:
                    t = r_hi if r_hi < c else c
                    r_hi -= t
                    act_hi = r_hi > 1e-12
        return loads, draws

    def loads_at(self, rate: float) -> List[float]:
        """Final per-machine loads of one scalar balance at ``rate``.

        The exact float chain of :meth:`LoadBalancer.balance` (same stable
        fill order, same running subtraction, same ``1e-12`` break) on the
        kernel's cached constants, returned as a list aligned with
        ``machine_ids`` — no sort, no dict, no Assignment.  The replay's
        control pass uses this to refresh FSM-visible machine loads at
        decision/handover boundaries.
        """
        if rate < 0:
            raise ValueError("rate must be >= 0")
        cap = self.capacity
        served = rate if rate < cap else cap
        shares = [0.0] * len(self.machine_ids)
        if served > 0 and shares:
            if self.strategy == "efficient":
                remaining = served
                for i in self._order:
                    take = remaining if remaining < self._max_perfs[i] else self._max_perfs[i]
                    shares[i] = take
                    remaining -= take
                    if remaining <= 1e-12:
                        break
            else:  # proportional
                frac = served / cap
                for i, mp in enumerate(self._max_perfs):
                    shares[i] = frac * mp
        return shares


def serving_set_kernel(
    strategy: str, machines: Sequence[Machine]
) -> ServingSetKernel:
    """The composite kernel for a serving set (order-sensitive).

    Built fresh on every call: the replay memoises one per distinct
    serving set for the length of its run.
    """
    return ServingSetKernel(
        strategy, tuple((m.machine_id, m.profile) for m in machines)
    )


def serving_kernel_cache_stats() -> Dict[str, int]:
    """Zero hits and misses: no kernel is cached across replays (see
    :func:`serving_set_kernel`).  The name stays because
    ``perfbench/iteration.py`` reads it in every sample for its
    ``sim.kernel_cache_hit_ratio``."""
    return {"table_cache_hits": 0, "table_cache_misses": 0}
