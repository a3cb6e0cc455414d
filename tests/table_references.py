"""Pure-Python reference kernels for the table-construction properties.

The vectorised kernels in :mod:`repro.core.combination` and
:mod:`repro.core.constraints` promise output bit-identical to these
per-rate formulations (same float operation order, same tie-breaking),
and :func:`lookahead_max_reference` is the monotonic deque the sliding
maxima of :mod:`repro.workload.sliding` must equal.
The program never calls them; ``tests/properties/test_prop_vectorized.py``,
``tests/properties/test_prop_constraints.py``,
``tests/properties/test_prop_sliding.py``, ``tests/workload/test_sliding.py``
and ``benchmarks/test_perf_hotpaths.py`` compare against them.  The
benchmark puts this directory on ``sys.path`` itself, so a run of
``pytest benchmarks/`` alone can import it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.combination import (
    Combination,
    CombinationError,
    _DPResult,
    _grid_capacities,
    _partial_phase,
    _sliding_min_with_arg,
    build_table,
    greedy_combination,
    greedy_combination_bounded,
)
from repro.core.constraints import enforce_min_nodes
from repro.core.profiles import ArchitectureProfile

if TYPE_CHECKING:
    from repro.sim.application import ApplicationSpec

def lookahead_max_reference(values: Sequence[float], window: int) -> np.ndarray:
    """``max(values[t : t + window])`` for every ``t``, by monotonic deque.

    O(n), pure Python.  Sweeping right to left, a later index leaves the
    deque when an earlier value is at least as large, so a tie keeps the
    earliest sample of the window.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n = len(arr)
    out = np.empty(n)
    dq: deque = deque()  # indices, values decreasing
    for t in range(n - 1, -1, -1):
        while dq and arr[dq[-1]] <= arr[t]:
            dq.pop()
        dq.append(t)
        while dq and dq[0] > t + window - 1:
            dq.popleft()
        out[t] = arr[dq[0]]
    return out


def _sliding_min_with_arg_reference(
    values: np.ndarray, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """For each index i>=1: min of ``values[max(0, i-window) : i]`` and argmin.

    O(n) monotonic deque, pure Python — the reference implementation the
    vectorised :func:`_sliding_min_with_arg` is property-tested against.
    Entry i of the output corresponds to choosing a partial-load amount
    ``x`` in ``1..window`` with ``values[i - x]``; ties report the latest
    index attaining the minimum.
    """
    n = len(values)
    best = np.full(n, np.inf)
    arg = np.full(n, -1, dtype=np.int64)
    dq: deque = deque()  # indices with increasing values
    for i in range(1, n):
        j = i - 1  # values[j] becomes eligible for position i
        while dq and values[dq[-1]] >= values[j]:
            dq.pop()
        dq.append(j)
        while dq and dq[0] < i - window:
            dq.popleft()
        if dq and np.isfinite(values[dq[0]]):
            best[i] = values[dq[0]]
            arg[i] = dq[0]
    return best, arg


def _solve_dp_reference(
    profiles: Sequence[ArchitectureProfile],
    max_units: int,
    resolution: float,
) -> _DPResult:
    """The original per-rate Python DP, kept as the property-test reference."""
    profs = tuple(profiles)
    caps = _grid_capacities(profs, resolution)
    n = max_units + 1
    g = np.full(n, np.inf)
    g[0] = 0.0
    choice = np.full(n, -1, dtype=np.int64)
    for r in range(1, n):
        best = np.inf
        best_a = -1
        for a, p in enumerate(profs):
            prev = r - caps[a]
            if prev >= 0 and g[prev] + p.max_power < best:
                best = g[prev] + p.max_power
                best_a = a
        g[r] = best
        choice[r] = best_a
    f, part_arch, part_from = _partial_phase(
        profs, caps, g, resolution, _sliding_min_with_arg_reference
    )
    return _DPResult(
        resolution=resolution,
        profiles=profs,
        power=f,
        cover_cost=g,
        cover_choice=choice,
        partial_arch=part_arch,
        partial_from=part_from,
    )


def _greedy_combos_reference(
    ordered: Sequence[ArchitectureProfile],
    thresholds: Mapping[str, float],
    max_units: int,
    resolution: float,
    inventory: Optional[Mapping[str, int]] = None,
) -> List[Combination]:
    """Per-rate greedy construction — the property-test/benchmark reference."""
    combos: List[Combination] = []
    for k in range(max_units + 1):
        if inventory is None:
            combos.append(greedy_combination(k * resolution, ordered, thresholds))
        else:
            combos.append(
                greedy_combination_bounded(
                    k * resolution, ordered, thresholds, inventory
                )
            )
    return combos


def _solve_bounded_reference(
    profiles: Sequence[ArchitectureProfile],
    max_units: int,
    resolution: float,
    max_nodes: int,
):
    """The original masked per-architecture layer updates (test reference)."""
    if max_nodes < 1:
        raise CombinationError("max_nodes must be >= 1")
    profs = tuple(profiles)
    caps = _grid_capacities(profs, resolution)
    n_rates = max_units + 1

    g = np.full((max_nodes + 1, n_rates), np.inf)
    g[0, 0] = 0.0
    g_choice = np.full((max_nodes + 1, n_rates), -1, dtype=np.int64)
    for n in range(1, max_nodes + 1):
        for a, p in enumerate(profs):
            cap = caps[a]
            if cap >= n_rates:
                continue
            cand = g[n - 1, : n_rates - cap] + p.max_power
            better = cand < g[n, cap:]
            g[n, cap:][better] = cand[better]
            g_choice[n, cap:][better] = a

    f = np.full(n_rates, np.inf)
    f[0] = 0.0
    f_n = np.full(n_rates, -1, dtype=np.int64)
    f_arch = np.full(n_rates, -1, dtype=np.int64)
    f_from = np.full(n_rates, -1, dtype=np.int64)
    rates = np.arange(n_rates) * resolution
    for n in range(0, max_nodes):
        layer = g[n]
        exact = layer < f
        f[exact] = layer[exact]
        f_n[exact] = n
        f_arch[exact] = -1
        f_from[exact] = -1
        for a, p in enumerate(profs):
            h = layer - p.slope * rates
            best_h, arg_h = _sliding_min_with_arg(h, caps[a])
            cand = best_h + p.idle_power + p.slope * rates
            better = cand < f
            f[better] = cand[better]
            f_n[better] = n
            f_arch[better] = a
            f_from[better] = arg_h[better]
    exact = g[max_nodes] < f
    f[exact] = g[max_nodes][exact]
    f_n[exact] = max_nodes
    f_arch[exact] = -1
    f_from[exact] = -1
    return profs, caps, g_choice, f, f_n, f_arch, f_from


def _constrained_counts_reference(
    ordered: Sequence[ArchitectureProfile],
    spec: "ApplicationSpec",
    max_units: int,
    resolution: float,
) -> List[Combination]:
    """Per-rate backtracking construction — the property-test reference."""
    combos: List[Combination] = []
    if spec.max_instances is None:
        base = build_table(ordered, {}, max_units * resolution, resolution, "ideal")
        combos = [base.combination_for(k * resolution) for k in range(max_units + 1)]
    else:
        profs, caps, g_choice, f, f_n, f_arch, f_from = _solve_bounded_reference(
            ordered, max_units, resolution, spec.max_instances
        )
        memo: Dict[Tuple[int, int, int], Combination] = {}
        for k in range(max_units + 1):
            if not np.isfinite(f[k]):
                raise CombinationError(
                    f"max_instances={spec.max_instances} cannot serve "
                    f"rate {k * resolution}"
                )
            n, a = int(f_n[k]), int(f_arch[k])
            r = int(f_from[k]) if a >= 0 else k
            sig = (n, a, r)
            combo = memo.get(sig)
            if combo is None:
                counts: Dict[ArchitectureProfile, int] = {}
                if a >= 0:
                    counts[profs[a]] = counts.get(profs[a], 0) + 1
                while n > 0:
                    choice = int(g_choice[n, r])
                    counts[profs[choice]] = counts.get(profs[choice], 0) + 1
                    r -= caps[choice]
                    n -= 1
                combo = Combination.of(counts)
                memo[sig] = combo
            combos.append(combo)
    padded: Dict[Combination, Combination] = {}

    def _pad(combo: Combination) -> Combination:
        out = padded.get(combo)
        if out is None:
            out = enforce_min_nodes(combo, spec.min_instances, ordered)
            padded[combo] = out
        return out

    return [c if not c else _pad(c) for c in combos]
