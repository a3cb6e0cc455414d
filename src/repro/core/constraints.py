"""Application-constrained combinations (Sec. III's malleability bounds).

Sec. III characterises applications by *malleability*: whether the
service can be distributed across several machines, and if not, the
minimum and maximum number of instances that may run.  Since the paper's
deployment model hosts one instance per machine, instance bounds become
**node-count bounds on the machine combinations** — "this criterion poses
a constraint when computing the possible hosting machine combinations".

This module computes optimal combinations under those bounds:

* :func:`bounded_nodes_table` / :func:`bounded_nodes_combination` — a DP
  over (rate, node budget) that yields the cheapest machine multiset
  serving each rate with **at most** ``max_nodes`` machines.  It extends
  the unconstrained DP of :mod:`repro.core.combination` with a node
  dimension (full-cover layers ``g[n][r]`` + one partial machine).
* :func:`enforce_min_nodes` — pads a combination with the cheapest idle
  machines to reach a **minimum** instance count (redundancy floors:
  "at least 2 instances at all times").
* :func:`constrained_table` — a drop-in
  :class:`~repro.core.combination.CombinationTable` whose entries respect
  ``ApplicationSpec.min_instances`` / ``max_instances``, usable by every
  scheduler in the library.

Performance architecture
------------------------
Like the unconstrained engine, the bounded DP runs on numpy kernels; the
original formulations live in ``tests/table_references.py`` as the
references of the equivalence property tests
(``tests/properties/test_prop_constraints.py``):

* the layer recurrence stacks every architecture's shifted candidate row
  and reduces with one ``argmin`` pass per layer
  (first-occurrence ties match the sequential update order exactly);
* table reconstruction replaces the per-rate Python backtracking of
  :func:`constrained_table` with pointer-doubling over the flattened
  ``(layer, rate)`` choice chain (:func:`_bounded_counts_all`), then
  materialises one :class:`Combination` object per run of identical rows;
* ``min_instances`` padding is applied on the count matrix directly.

Table *reuse* lives on :meth:`repro.core.bml.BMLInfrastructure.table`,
which memoises constrained tables per instance-bound key and hands the
unconstrained (``max_instances is None``) variant its cached exact-DP
base table via ``base_table`` instead of rebuilding it per call.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # avoid a core -> sim import cycle at runtime
    from ..sim.application import ApplicationSpec

from .combination import (
    Combination,
    CombinationError,
    CombinationTable,
    _combos_from_counts,
    _grid_capacities,
    _sliding_min_with_arg,
)
from .profiles import ArchitectureProfile

__all__ = [
    "bounded_nodes_table",
    "bounded_nodes_combination",
    "enforce_min_nodes",
    "constrained_table",
]

_TOL = 1e-9


def _solve_bounded(
    profiles: Sequence[ArchitectureProfile],
    max_units: int,
    resolution: float,
    max_nodes: int,
):
    """DP layers: ``g[n][r]`` = cheapest exact cover of rate ``r`` with
    ``n`` fully loaded machines; then one partial machine on top.

    The per-architecture masked updates of the reference are replaced by
    one stacked candidate matrix and a single ``argmin`` reduction per
    layer; ``np.argmin``'s first-occurrence tie rule reproduces the
    sequential ``cand < best`` updates bit for bit.
    """
    if max_nodes < 1:
        raise CombinationError("max_nodes must be >= 1")
    profs = tuple(profiles)
    caps = _grid_capacities(profs, resolution)
    n_rates = max_units + 1
    n_arch = len(profs)

    g = np.full((max_nodes + 1, n_rates), np.inf)
    g[0, 0] = 0.0
    g_choice = np.full((max_nodes + 1, n_rates), -1, dtype=np.int64)
    cand = np.empty((n_arch, n_rates))
    for n in range(1, max_nodes + 1) if n_arch else ():
        cand[:] = np.inf
        for a, p in enumerate(profs):
            cap = caps[a]
            if cap >= n_rates:
                continue
            cand[a, cap:] = g[n - 1, : n_rates - cap] + p.max_power
        best_a = np.argmin(cand, axis=0)
        best = cand[best_a, np.arange(n_rates)]
        g[n] = best
        g_choice[n] = np.where(np.isfinite(best), best_a, -1)

    # f[r]: cheapest combination (full layers + <=1 partial machine)
    f = np.full(n_rates, np.inf)
    f[0] = 0.0
    f_n = np.full(n_rates, -1, dtype=np.int64)       # full-layer count used
    f_arch = np.full(n_rates, -1, dtype=np.int64)    # partial machine arch
    f_from = np.full(n_rates, -1, dtype=np.int64)    # grid index it extends
    rates = np.arange(n_rates) * resolution
    for n in range(0, max_nodes):
        layer = g[n]
        # full layers alone (rate must be exactly covered)
        exact = layer < f
        f[exact] = layer[exact]
        f_n[exact] = n
        f_arch[exact] = -1
        f_from[exact] = -1
        for a, p in enumerate(profs):
            h = layer - p.slope * rates
            best_h, arg_h = _sliding_min_with_arg(h, caps[a])
            cand_f = best_h + p.idle_power + p.slope * rates
            better = cand_f < f
            f[better] = cand_f[better]
            f_n[better] = n
            f_arch[better] = a
            f_from[better] = arg_h[better]
    # the full budget may also be spent entirely on full machines
    exact = g[max_nodes] < f
    f[exact] = g[max_nodes][exact]
    f_n[exact] = max_nodes
    f_arch[exact] = -1
    f_from[exact] = -1
    return profs, caps, g_choice, f, f_n, f_arch, f_from


def bounded_nodes_table(
    profiles: Sequence[ArchitectureProfile],
    max_rate: float,
    max_nodes: int,
    resolution: float = 1.0,
) -> np.ndarray:
    """Optimal power per grid rate using at most ``max_nodes`` machines.

    Entries are ``inf`` where the node budget cannot reach the rate (the
    budget times the biggest machine is the hard ceiling).
    """
    max_units = int(math.ceil(max_rate / resolution - _TOL))
    _, _, _, f, _, _, _ = _solve_bounded(profiles, max_units, resolution, max_nodes)
    return f


def bounded_nodes_combination(
    rate: float,
    profiles: Sequence[ArchitectureProfile],
    max_nodes: int,
    resolution: float = 1.0,
) -> Combination:
    """The cheapest combination for ``rate`` with at most ``max_nodes``."""
    if rate <= _TOL:
        return Combination.empty()
    units = int(math.ceil(rate / resolution - _TOL))
    profs, caps, g_choice, f, f_n, f_arch, f_from = _solve_bounded(
        profiles, units, resolution, max_nodes
    )
    if not np.isfinite(f[units]):
        raise CombinationError(
            f"{max_nodes} machines cannot serve rate {rate} with these architectures"
        )
    counts: Dict[ArchitectureProfile, int] = {}
    r = units
    n = int(f_n[units])
    a = int(f_arch[units])
    if a >= 0:
        counts[profs[a]] = counts.get(profs[a], 0) + 1
        r = int(f_from[units])
    while r > 0 or n > 0:
        if r == 0 and n > 0:
            # remaining layers are zero-rate covers: impossible except n=0
            raise CombinationError("inconsistent DP backtrack")
        choice = int(g_choice[n, r])
        if choice < 0:
            raise CombinationError("inconsistent DP backtrack")
        counts[profs[choice]] = counts.get(profs[choice], 0) + 1
        r -= caps[choice]
        n -= 1
    return Combination.of(counts)


def enforce_min_nodes(
    combo: Combination,
    min_nodes: int,
    ordered: Sequence[ArchitectureProfile],
) -> Combination:
    """Pad ``combo`` up to ``min_nodes`` machines with the cheapest idlers.

    Redundancy floors ("always at least k instances") add machines that
    carry no load; the Little architecture has the lowest idle power, so
    padding uses the smallest-idle machine available.
    """
    if min_nodes < 0:
        raise CombinationError("min_nodes must be >= 0")
    deficit = min_nodes - combo.total_nodes
    if deficit <= 0:
        return combo
    filler = min(ordered, key=lambda p: p.idle_power)
    counts = {p: c for p, c in combo.items}
    counts[filler] = counts.get(filler, 0) + deficit
    return Combination.of(counts)


def _bounded_counts_all(
    g_choice: np.ndarray, caps: Sequence[int], n_arch: int
) -> np.ndarray:
    """Node counts of the exact-cover chain for every ``(layer, rate)`` state.

    The bounded DP's backtrack walks ``(n, r) -> (n-1, r - caps[choice])``;
    flattening states to ``n * n_rates + r`` turns that walk into a parent
    chain that pointer-doubling resolves in ``O(log max_nodes)`` vectorised
    gathers — the layered counterpart of
    :func:`repro.core.combination._cover_counts_all`.  Rows whose state is
    unreachable (choice ``-1``) stay at whatever partial chain they reach;
    callers must only read states with a finite DP cost.
    """
    n_layers, n_rates = g_choice.shape
    choice = g_choice.reshape(-1)
    states = np.arange(n_layers * n_rates)
    counts = np.zeros((n_layers * n_rates, n_arch), dtype=np.int64)
    valid = choice >= 0
    counts[states[valid], choice[valid]] = 1
    caps_arr = np.asarray(caps, dtype=np.int64)
    jump = np.where(valid, states - n_rates - caps_arr[np.where(valid, choice, 0)], 0)
    # A valid state's parent is valid (finite costs chain to (0, 0)), so
    # every chain terminates at flat index 0 where the jump is 0.
    jump = np.maximum(jump, 0)
    while np.any(jump > 0):
        counts += counts[jump]
        jump = jump[jump]
    return counts


def constrained_table(
    ordered: Sequence[ArchitectureProfile],
    spec: "ApplicationSpec",
    max_rate: float,
    resolution: float = 1.0,
    base_table: Optional[CombinationTable] = None,
) -> CombinationTable:
    """A combination table honouring the application's instance bounds.

    With no ``max_instances`` the entries are the unconstrained DP optima
    (``base_table``, when given, supplies that exact-DP table — the
    infrastructure-level cache passes its memoised one); otherwise each
    rate's combination uses at most that many machines.  ``min_instances``
    pads every non-empty entry (rate 0 keeps the empty combination: the
    service is scaled to zero, as in the unconstrained tables).
    """
    max_units = int(math.ceil(max_rate / resolution - _TOL))
    n_rates = max_units + 1
    if spec.max_instances is None:
        if base_table is None:
            from .combination import build_table

            base_table = build_table(
                ordered, {}, max_units * resolution, resolution, "ideal"
            )
        if len(base_table) < n_rates:
            raise CombinationError(
                f"base table covers {base_table.max_rate}, need {max_rate}"
            )
        counts = base_table.counts_array[:n_rates].copy()
    else:
        profs, caps, g_choice, f, f_n, f_arch, f_from = _solve_bounded(
            ordered, max_units, resolution, spec.max_instances
        )
        bad = ~np.isfinite(f)
        if bad.any():
            k = int(np.argmax(bad))
            raise CombinationError(
                f"max_instances={spec.max_instances} cannot serve "
                f"rate {k * resolution}"
            )
        layer_counts = _bounded_counts_all(g_choice, caps, len(profs))
        rows = np.arange(n_rates)
        has_partial = f_arch >= 0
        start_r = np.where(has_partial, f_from, rows)
        # Rate 0 keeps f_n == -1 (the empty combination, never updated by
        # the layer loop); route it to flat state 0 — (layer 0, rate 0),
        # whose chain is empty — instead of a wrapped negative index.
        state = np.where(f_n >= 0, f_n * n_rates + start_r, 0)
        counts = layer_counts[state].copy()
        counts[rows[has_partial], f_arch[has_partial]] += 1
    # min_instances padding on the count matrix (empty rows stay empty).
    if spec.min_instances > 0:
        filler = min(ordered, key=lambda p: p.idle_power)
        col = next(i for i, p in enumerate(ordered) if p is filler)
        totals = counts.sum(axis=1)
        deficit = spec.min_instances - totals
        pad_rows = (totals > 0) & (deficit > 0)
        counts[pad_rows, col] += deficit[pad_rows]
    combos = _combos_from_counts(ordered, counts)
    return CombinationTable(ordered, combos, resolution, "constrained", _counts=counts)
