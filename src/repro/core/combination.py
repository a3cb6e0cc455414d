"""Machine combinations and ideal-combination computation (Step 5).

The paper frames building a BML combination as a bin-packing problem where
bins are machine types (size = ``max_perf``, cost = power) and the single
"object" — the target performance rate — can be split arbitrarily.  Two
builders are provided:

* :func:`greedy_combination` — the paper's Step 5 algorithm: fill Big nodes
  completely, then Medium, and so on; the remainder is assigned to one
  partially loaded node of the largest architecture whose *minimum
  utilization threshold* (Steps 3-4) the remainder reaches.
* :func:`ideal_table` / :func:`ideal_combination` — an exact dynamic
  program over the integer rate grid.  Under the linear power model an
  optimal machine multiset can always be loaded as "all nodes full except
  at most one partial" (loading by increasing marginal cost leaves at most
  one fractional node), so the optimum decomposes into *exact full-node
  cover* + *one partial node*, which the DP solves in
  ``O(max_rate x n_architectures)`` using a sliding minimum.  The exact DP
  is used by Step 4 (crossing points against mixed combinations of smaller
  architectures), by the theoretical lower bound, and as the reference for
  the greedy-vs-optimal ablation (A1).

Rates are discretised to a configurable ``resolution`` (default: 1 unit of
the application metric, i.e. 1 req/s in the paper) — the paper's thresholds
(1, 10, 529 req/s) live on the same integer grid.

Performance architecture
------------------------
Table construction is the substrate under the scheduler, the crossing
analysis, the constrained variant and the lower bound, so everything on
that path is expressed as numpy array operations; the original pure-Python
formulations live in ``tests/table_references.py`` as the references of
the equivalence property tests
(``tests/properties/test_prop_vectorized.py``):

* **Greedy tables** (:func:`build_table`, ``method="greedy"``) compute the
  node-count matrix for *all* grid rates at once with ``O(n_architectures)``
  vectorised passes (:func:`_greedy_counts_grid`), then materialise one
  :class:`Combination` object per *run* of identical rows — the greedy
  multiset only changes at node-capacity and threshold crossings, so this
  is ``O(#distinct combos)`` object constructions instead of
  ``O(max_rate)`` (reference: :func:`greedy_combination` once per rate).
* **The exact DP** (:func:`_solve_dp`) replaces the per-rate Python loops
  with a chunked numpy kernel for the full-cover recurrence
  (:func:`_cover_costs`, blocks of ``min(caps)`` rates have no intra-block
  dependency) and a Gil-Werman block decomposition for the sliding minimum
  (:func:`_sliding_min_with_arg`, ``O(n)`` with three accumulate passes).
  Exact-cover multisets for every grid rate are reconstructed with
  pointer-doubling over the DP's choice chain (``O(n log n)`` gathers)
  instead of ``O(n x nodes)`` backtracking.  Reference:
  ``_solve_dp_reference`` / ``_sliding_min_with_arg_reference`` in
  ``tests/table_references.py``.
* **Grid power evaluation** (:class:`CombinationTable`) mirrors
  :meth:`Combination.power`'s exact operation order over the whole count
  matrix at once (:func:`_grid_power_from_counts`), so the vectorised
  power array is bit-identical to per-rate evaluation.

Both kernels are deterministic replicas of the references (same float
operation order, same tie-breaking), so the produced tables are
bit-identical — counts and power arrays — to the per-rate constructions.
Table *reuse* (memoisation keyed on method/resolution/inventory, with
monotone reuse of larger tables for smaller requests) lives on
:meth:`repro.core.bml.BMLInfrastructure.table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .profiles import ArchitectureProfile, ProfileError

__all__ = [
    "Combination",
    "CombinationError",
    "greedy_combination",
    "greedy_combination_bounded",
    "ideal_table",
    "ideal_combination",
    "CombinationTable",
    "build_table",
]

_TOL = 1e-9
#: Samples per block of the block-wise series kernels (``power_at_load``,
#: ``sim.datacenter.execute_plan``): their temporaries stay cache-sized.
_BLOCK = 1 << 16


class CombinationError(ValueError):
    """Raised for infeasible or inconsistent combinations."""


@dataclass(frozen=True)
class Combination:
    """A multiset of machines, as ``((profile, count), ...)`` pairs.

    ``items`` is normalised: sorted by decreasing ``max_perf`` with zero
    counts dropped, so two combinations with the same machines compare
    equal regardless of construction order.
    """

    items: Tuple[Tuple[ArchitectureProfile, int], ...]

    def __post_init__(self) -> None:
        for prof, count in self.items:
            if count < 0:
                raise CombinationError(f"negative count for {prof.name}")
        norm = tuple(
            sorted(
                ((p, c) for p, c in self.items if c > 0),
                key=lambda pc: (-pc[0].max_perf, pc[0].name),
            )
        )
        object.__setattr__(self, "items", norm)

    # -- constructors ---------------------------------------------------
    @classmethod
    def of(cls, counts: Mapping[ArchitectureProfile, int]) -> "Combination":
        """Build from a ``profile -> count`` mapping."""
        return cls(tuple(counts.items()))

    @classmethod
    def empty(cls) -> "Combination":
        """The combination with no machines (serves only rate 0)."""
        return cls(())

    @classmethod
    def _from_normalized(
        cls, items: Tuple[Tuple[ArchitectureProfile, int], ...]
    ) -> "Combination":
        """Fast construction from items already in normalised form.

        ``items`` must be zero-free and sorted by ``(-max_perf, name)`` —
        exactly what ``__post_init__`` would produce.  Used by the
        run-length table builders, which create one object per distinct
        multiset instead of one per grid rate.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "items", items)
        return obj

    def __hash__(self) -> int:
        """The generated dataclass hash, memoised like :attr:`counts`.

        Plan execution hashes the same serving combinations again and
        again, and each generated hash re-hashed every profile's fields.
        """
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.items,))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, object]:
        # String hashes are salted per process: a memoised hash pickled to
        # or from a spawned worker would split equal combinations in dicts.
        # The counts and breakpoints are rebuilt on demand; pickled, they
        # would only grow plans and worker replies.
        state = self.__dict__.copy()
        state.pop("_hash", None)
        state.pop("_counts", None)
        state.pop("_breakpoints", None)
        return state

    # -- basic views ----------------------------------------------------
    @property
    def profiles(self) -> Tuple[ArchitectureProfile, ...]:
        """Distinct architectures present, big to little."""
        return tuple(p for p, _ in self.items)

    @property
    def counts(self) -> Dict[str, int]:
        """``architecture name -> node count`` view (cached; do not mutate)."""
        cached = self.__dict__.get("_counts")
        if cached is None:
            cached = {p.name: c for p, c in self.items}
            object.__setattr__(self, "_counts", cached)
        return cached

    @property
    def total_nodes(self) -> int:
        """Total number of machines in the combination."""
        return sum(c for _, c in self.items)

    @property
    def capacity(self) -> float:
        """Maximum performance rate this combination can serve."""
        return sum(p.max_perf * c for p, c in self.items)

    @property
    def idle_power(self) -> float:
        """Power drawn when every machine idles (all on, zero load)."""
        return sum(p.idle_power * c for p, c in self.items)

    @property
    def peak_power(self) -> float:
        """Power drawn when every machine runs at ``max_perf``."""
        return sum(p.max_power * c for p, c in self.items)

    def count_of(self, name: str) -> int:
        """Node count of architecture ``name`` (0 when absent)."""
        return self.counts.get(name, 0)

    def __bool__(self) -> bool:
        return bool(self.items)

    # -- power models ----------------------------------------------------
    def power(self, rate: float) -> float:
        """Minimal power (W) for this machine set to serve ``rate``.

        All idle powers are sunk once a machine is on, so the optimal load
        assignment fills machines by increasing marginal cost (``slope``);
        this is the assignment used for every power figure in the library.
        """
        if rate < -_TOL:
            raise CombinationError("rate must be >= 0")
        rate = max(rate, 0.0)
        if rate > self.capacity * (1 + 1e-9) + _TOL:
            raise CombinationError(
                f"rate {rate} exceeds capacity {self.capacity} of {self.counts}"
            )
        total = self.idle_power
        remaining = min(rate, self.capacity)
        for prof, count in sorted(self.items, key=lambda pc: pc[0].slope):
            if remaining <= _TOL:
                break
            share = min(remaining, prof.max_perf * count)
            total += prof.slope * share
            remaining -= share
        return total

    @property
    def breakpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """Breakpoints ``(loads, powers)`` of :meth:`power` (cached; do not
        mutate): the all-idle draw, then one point per architecture group
        in increasing-slope order."""
        cached = self.__dict__.get("_breakpoints")
        if cached is None:
            caps = [0.0]
            powers = [self.idle_power]
            for prof, count in sorted(self.items, key=lambda pc: pc[0].slope):
                group_cap = prof.max_perf * count
                caps.append(caps[-1] + group_cap)
                powers.append(powers[-1] + prof.slope * group_cap)
            cached = (np.asarray(caps), np.asarray(powers))
            object.__setattr__(self, "_breakpoints", cached)
        return cached

    def power_canonical(self, rate: float) -> float:
        """Power under the paper's canonical assignment.

        Load is assigned big-to-little, filling each architecture group's
        nodes completely before moving on (one node per group may end up
        partial).  This matches the construction of Step 5 figures; it can
        only exceed :meth:`power` and coincides with it whenever marginal
        costs are ordered big-to-little.
        """
        if rate > self.capacity * (1 + 1e-9) + _TOL:
            raise CombinationError(
                f"rate {rate} exceeds capacity {self.capacity} of {self.counts}"
            )
        total = 0.0
        remaining = max(rate, 0.0)
        for prof, count in self.items:  # already big -> little
            share = min(remaining, prof.max_perf * count)
            remaining -= share
            full = int(share // prof.max_perf + _TOL)
            rem = share - full * prof.max_perf
            partial = 1 if rem > _TOL else 0
            total += full * prof.max_power
            if partial:
                total += prof.idle_power + prof.slope * rem
            total += (count - full - partial) * prof.idle_power
        return total

    # -- set algebra (used by reconfiguration planning) ------------------
    def diff(self, other: "Combination") -> Dict[str, int]:
        """Per-architecture node delta ``other - self`` (start>0, stop<0)."""
        names = set(self.counts) | set(other.counts)
        return {
            n: other.counts.get(n, 0) - self.counts.get(n, 0)
            for n in sorted(names)
            if other.counts.get(n, 0) != self.counts.get(n, 0)
        }

    def union_max(self, other: "Combination") -> "Combination":
        """Per-architecture maximum of two combinations.

        This is the machine set that must be simultaneously on while
        reconfiguring from ``self`` to ``other`` without capacity loss.
        """
        profs = {p.name: p for p in self.profiles + other.profiles}
        return Combination.of(
            {
                profs[n]: max(self.counts.get(n, 0), other.counts.get(n, 0))
                for n in profs
            }
        )

    def describe(self) -> str:
        """Human-readable summary, e.g. ``1xparavance + 2xchromebook``."""
        if not self.items:
            return "(empty)"
        return " + ".join(f"{c}x{p.name}" for p, c in self.items)


# ----------------------------------------------------------------------
# Paper's Step 5 greedy
# ----------------------------------------------------------------------

def greedy_combination(
    rate: float,
    ordered: Sequence[ArchitectureProfile],
    thresholds: Mapping[str, float],
) -> Combination:
    """The paper's ideal BML combination for a target ``rate`` (Step 5).

    ``ordered`` must be the surviving candidates sorted big to little and
    ``thresholds`` their minimum utilization thresholds from Steps 3-4
    (the Little threshold is conventionally 1 and any positive remainder is
    always served).  The algorithm fills whole nodes big-to-little, then
    the first architecture (big to little) whose threshold the remainder
    reaches absorbs it on one partial node.
    """
    if rate < -_TOL:
        raise CombinationError("rate must be >= 0")
    if not ordered:
        raise CombinationError("no architectures to combine")
    counts: Dict[ArchitectureProfile, int] = {}
    remaining = max(float(rate), 0.0)
    last = len(ordered) - 1
    for i, prof in enumerate(ordered):
        if remaining <= _TOL:
            break
        full = int(remaining // prof.max_perf + _TOL)
        if full:
            counts[prof] = counts.get(prof, 0) + full
            remaining -= full * prof.max_perf
        if remaining <= _TOL:
            break
        threshold = thresholds.get(prof.name, 1.0)
        if remaining >= threshold - _TOL or i == last:
            # One partial node of this architecture absorbs the remainder.
            counts[prof] = counts.get(prof, 0) + 1
            remaining = 0.0
            break
    if remaining > _TOL:
        raise CombinationError(f"could not place remainder {remaining}")
    return Combination.of(counts)


def greedy_combination_bounded(
    rate: float,
    ordered: Sequence[ArchitectureProfile],
    thresholds: Mapping[str, float],
    inventory: Mapping[str, int],
) -> Combination:
    """Step 5 greedy under a bounded machine inventory.

    The paper assumes unlimited machines of each type but notes that "with
    minor changes, this work can consider cases of existing heterogeneous
    infrastructure where there is limited numbers of machines".  This
    variant makes those changes: the greedy fill caps each architecture at
    its inventory, and when the threshold-preferred architecture for the
    remainder is exhausted the remainder cascades to whatever machines are
    left (littlest spare machines first), trading optimality for
    feasibility.  Raises :class:`CombinationError` when the whole
    inventory cannot serve ``rate``.
    """
    if rate < -_TOL:
        raise CombinationError("rate must be >= 0")
    if not ordered:
        raise CombinationError("no architectures to combine")
    avail: Dict[str, int] = {
        p.name: int(inventory.get(p.name, 0)) for p in ordered
    }
    counts: Dict[ArchitectureProfile, int] = {}
    remaining = max(float(rate), 0.0)
    last = len(ordered) - 1
    for i, prof in enumerate(ordered):
        if remaining <= _TOL:
            break
        full = min(int(remaining // prof.max_perf + _TOL), avail[prof.name])
        if full:
            counts[prof] = counts.get(prof, 0) + full
            avail[prof.name] -= full
            remaining -= full * prof.max_perf
        if remaining <= _TOL:
            break
        threshold = thresholds.get(prof.name, 1.0)
        if (remaining >= threshold - _TOL or i == last) and avail[prof.name] >= 1:
            counts[prof] = counts.get(prof, 0) + 1
            avail[prof.name] -= 1
            remaining = 0.0
            break
    if remaining > _TOL:
        # Preferred machines exhausted: absorb the rest with whatever is
        # left, smallest machines first (closest to the ideal shape).
        for prof in reversed(ordered):
            if remaining <= _TOL:
                break
            if avail[prof.name] < 1:
                continue
            take = min(
                int(math.ceil((remaining - _TOL) / prof.max_perf)),
                avail[prof.name],
            )
            counts[prof] = counts.get(prof, 0) + take
            avail[prof.name] -= take
            remaining -= take * prof.max_perf
        if remaining > _TOL:
            raise CombinationError(
                f"inventory {dict(inventory)} cannot serve rate {rate} "
                f"(short by {remaining:g})"
            )
    return Combination.of(counts)


# ----------------------------------------------------------------------
# Vectorised greedy: count matrix for the whole rate grid at once
# ----------------------------------------------------------------------

def _normalized_order(profiles: Sequence[ArchitectureProfile]) -> List[int]:
    """Column order matching ``Combination.__post_init__``'s item order."""
    return sorted(
        range(len(profiles)),
        key=lambda i: (-profiles[i].max_perf, profiles[i].name),
    )


def _greedy_counts_grid(
    ordered: Sequence[ArchitectureProfile],
    thresholds: Mapping[str, float],
    max_units: int,
    resolution: float,
    inventory: Optional[Mapping[str, int]] = None,
) -> np.ndarray:
    """Greedy node counts for every grid rate, shape ``(max_units+1, n_arch)``.

    Replays :func:`greedy_combination` (or the bounded variant) for all
    rates simultaneously with one vectorised pass per architecture.  The
    float operations mirror the scalar builders exactly (same floor-divide,
    same tolerance masks), so the resulting matrix is bit-identical to the
    per-rate construction.
    """
    if not ordered:
        raise CombinationError("no architectures to combine")
    n_arch = len(ordered)
    n = max_units + 1
    remaining = np.arange(n, dtype=np.float64) * resolution
    counts = np.zeros((n, n_arch), dtype=np.int64)
    avail: Optional[np.ndarray] = None
    if inventory is not None:
        stock = np.array(
            [int(inventory.get(p.name, 0)) for p in ordered], dtype=np.int64
        )
        avail = np.broadcast_to(stock, (n, n_arch)).copy()
    last = n_arch - 1
    for i, prof in enumerate(ordered):
        active = remaining > _TOL
        if not active.any():
            break
        cap = prof.max_perf
        # int(remaining // cap + _TOL): floor_divide matches Python's //.
        full = np.floor(np.floor_divide(remaining, cap) + _TOL).astype(np.int64)
        full[~active] = 0
        if avail is not None:
            np.minimum(full, avail[:, i], out=full)
            avail[:, i] -= full
        counts[:, i] += full
        remaining = remaining - full.astype(np.float64) * cap
        still = active & (remaining > _TOL)
        if i == last:
            place = still
        else:
            threshold = float(thresholds.get(prof.name, 1.0))
            place = still & (remaining >= threshold - _TOL)
        if avail is not None:
            place &= avail[:, i] >= 1
        counts[place, i] += 1
        if avail is not None:
            avail[place, i] -= 1
        remaining[place] = 0.0
    leftover = remaining > _TOL
    if leftover.any() and inventory is not None:
        # Cascade: absorb the rest with whatever machines are left,
        # smallest first (mirrors greedy_combination_bounded).
        for i in range(n_arch - 1, -1, -1):
            rows = remaining > _TOL
            if not rows.any():
                break
            cap = ordered[i].max_perf
            take = np.ceil((remaining - _TOL) / cap)
            take = np.minimum(take, avail[:, i].astype(np.float64))
            take = take.astype(np.int64)
            take[~rows] = 0
            counts[:, i] += take
            avail[:, i] -= take
            remaining = remaining - take.astype(np.float64) * cap
        leftover = remaining > _TOL
    if leftover.any():
        k = int(np.argmax(leftover))
        if inventory is not None:
            raise CombinationError(
                f"inventory {dict(inventory)} cannot serve rate {k * resolution} "
                f"(short by {remaining[k]:g})"
            )
        raise CombinationError(f"could not place remainder {remaining[k]}")
    return counts


def _combos_from_counts(
    profiles: Sequence[ArchitectureProfile], counts: np.ndarray
) -> List[Combination]:
    """Expand a count matrix into per-rate :class:`Combination` objects.

    One object is materialised per run of identical rows and shared across
    the run — ``O(#distinct combos)`` constructions for the whole grid.
    """
    n = len(counts)
    norm = _normalized_order(profiles)
    if n > 1:
        change = np.any(counts[1:] != counts[:-1], axis=1)
        starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    else:
        starts = np.array([0])
    ends = np.concatenate((starts[1:], [n]))
    combos: List[Combination] = []
    for s, e in zip(starts.tolist(), ends.tolist()):
        row = counts[s]
        items = tuple(
            (profiles[i], int(row[i])) for i in norm if row[i] > 0
        )
        combos += [Combination._from_normalized(items)] * (e - s)
    return combos


def _grid_power_from_counts(
    profiles: Sequence[ArchitectureProfile],
    counts: np.ndarray,
    rates: np.ndarray,
) -> np.ndarray:
    """Power of row ``k``'s machine multiset at ``rates[k]``, vectorised.

    Replicates :meth:`Combination.power`'s operation order exactly (idle
    sum in normalised item order, then shares by increasing marginal cost
    with the same tolerance masks), so the output is bit-identical to
    per-row scalar evaluation.
    """
    n = len(rates)
    norm = _normalized_order(profiles)
    fcounts = counts.astype(np.float64)
    total = np.zeros(n)
    capacity = np.zeros(n)
    for i in norm:
        p = profiles[i]
        total += p.idle_power * fcounts[:, i]
        capacity += p.max_perf * fcounts[:, i]
    bad = rates > capacity * (1 + 1e-9) + _TOL
    if bad.any():
        k = int(np.argmax(bad))
        raise CombinationError(
            f"rate {rates[k]} exceeds capacity {capacity[k]} of row {k}"
        )
    remaining = np.minimum(rates, capacity)
    for i in sorted(norm, key=lambda j: profiles[j].slope):
        p = profiles[i]
        active = remaining > _TOL
        share = np.where(
            active, np.minimum(remaining, p.max_perf * fcounts[:, i]), 0.0
        )
        total += p.slope * share
        remaining = remaining - share
    return total


# ----------------------------------------------------------------------
# Exact DP on the integer rate grid
# ----------------------------------------------------------------------

def _grid_capacities(
    profiles: Sequence[ArchitectureProfile], resolution: float
) -> List[int]:
    caps = []
    for p in profiles:
        cap = int(math.floor(p.max_perf / resolution + _TOL))
        if cap <= 0:
            raise CombinationError(
                f"{p.name}: max_perf {p.max_perf} below grid resolution {resolution}"
            )
        caps.append(cap)
    return caps


def _sliding_min_with_arg(
    values: np.ndarray, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """For each index i>=1: min of ``values[max(0, i-window) : i]`` and argmin.

    Entry i of the output corresponds to choosing a partial-load amount
    ``x`` in ``1..window`` with ``values[i - x]``; ties report the latest
    index attaining the minimum.  Gil-Werman block decomposition:
    prefix/suffix minima over blocks of ``window`` elements give every
    window minimum from two lookups; the argmin accumulates the *latest*
    index attaining the minimum, matching the tie-breaking of the
    monotonic-deque reference (``_sliding_min_with_arg_reference`` in
    ``tests/table_references.py``) exactly.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    best = np.full(n, np.inf)
    arg = np.full(n, -1, dtype=np.int64)
    w = int(window)
    if n <= 1 or w < 1:
        return best, arg
    # Truncated head windows: i < w sees values[0:i].
    t = min(w, n)
    head = values[:t]
    pm = np.minimum.accumulate(head)
    reset = head <= pm  # == running min -> latest tie wins
    pa = np.maximum.accumulate(np.where(reset, np.arange(t), -1))
    best[1:t] = pm[: t - 1]
    arg[1:t] = pa[: t - 1]
    if n > w:
        # Full windows: i in [w, n) sees values[i-w : i]; window start
        # s = i - w spans at most two width-w blocks.
        m = -(-n // w)
        pad = m * w - n
        v = np.concatenate((values, np.full(pad, np.inf))) if pad else values
        blocks = v.reshape(m, w)
        gidx = np.arange(m * w).reshape(m, w)
        pmin = np.minimum.accumulate(blocks, axis=1)
        reset = blocks <= pmin
        parg = np.maximum.accumulate(np.where(reset, gidx, -1), axis=1)
        rev = blocks[:, ::-1]
        smin_rev = np.minimum.accumulate(rev, axis=1)
        prev = np.concatenate(
            (np.full((m, 1), np.inf), smin_rev[:, :-1]), axis=1
        )
        # Strict improvement only: ties keep the later original index.
        reset_rev = rev < prev
        pos = np.maximum.accumulate(
            np.where(reset_rev, np.arange(w), -1), axis=1
        )
        base = (np.arange(m) * w)[:, None]
        sarg_rev = np.where(pos >= 0, base + (w - 1 - pos), -1)
        smin = smin_rev[:, ::-1]
        sarg = sarg_rev[:, ::-1]
        s = np.arange(n - w)
        b = s + w - 1
        suf_min = smin[s // w, s % w]
        suf_arg = sarg[s // w, s % w]
        pre_min = pmin[b // w, b % w]
        pre_arg = parg[b // w, b % w]
        take_pre = pre_min <= suf_min  # tie -> prefix side (later indices)
        i_idx = s + w
        best[i_idx] = np.where(take_pre, pre_min, suf_min)
        arg[i_idx] = np.where(take_pre, pre_arg, suf_arg)
    unreachable = ~np.isfinite(best)
    best[unreachable] = np.inf
    arg[unreachable] = -1
    return best, arg


def _cover_costs(
    profiles: Sequence[ArchitectureProfile],
    caps: Sequence[int],
    n: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact full-node-cover DP ``g`` and its choice array, chunked numpy.

    ``g[r] = min_a g[r - caps[a]] + max_power[a]``; every dependency spans
    at least ``min(caps)`` grid rates, so blocks of that many rates update
    with pure array slicing (no intra-block dependency).  First-wins tie
    breaking matches the reference loop.
    """
    powers = [p.max_power for p in profiles]
    g = np.full(n, np.inf)
    g[0] = 0.0
    choice = np.full(n, -1, dtype=np.int64)
    block = min(caps)
    s = 1
    while s < n:
        e = min(s + block, n)
        best = np.full(e - s, np.inf)
        best_a = np.full(e - s, -1, dtype=np.int64)
        for a, cap in enumerate(caps):
            lo = max(s, cap)
            if lo >= e:
                continue
            cand = g[lo - cap : e - cap] + powers[a]
            seg = slice(lo - s, e - s)
            better = cand < best[seg]
            best[seg][better] = cand[better]
            best_a[seg][better] = a
        g[s:e] = best
        choice[s:e] = best_a
        s = e
    return g, choice


@dataclass(frozen=True)
class _DPResult:
    resolution: float
    profiles: Tuple[ArchitectureProfile, ...]
    power: np.ndarray          # optimal power per grid rate (index = units)
    cover_cost: np.ndarray     # g: cost of exact full-node cover
    cover_choice: np.ndarray   # arch index used at g[r], -1 = none
    partial_arch: np.ndarray   # arch index of the partial node at f[r]
    partial_from: np.ndarray   # grid index the partial node extends


def _partial_phase(
    profs: Tuple[ArchitectureProfile, ...],
    caps: Sequence[int],
    g: np.ndarray,
    resolution: float,
    sliding_min,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overlay one partial node on the exact cover (shared f-phase)."""
    n = len(g)
    f = np.full(n, np.inf)
    f[0] = 0.0
    part_arch = np.full(n, -1, dtype=np.int64)
    part_from = np.full(n, -1, dtype=np.int64)
    for a, p in enumerate(profs):
        # g[r - x] + idle + slope * (x * res)
        #   = (g[r - x] - slope * res * (r - x)) + idle + slope * res * r
        h = g - p.slope * resolution * np.arange(n)
        best_h, arg_h = sliding_min(h, caps[a])
        cand = best_h + p.idle_power + p.slope * resolution * np.arange(n)
        better = cand < f
        f = np.where(better, cand, f)
        part_arch = np.where(better, a, part_arch)
        part_from = np.where(better, arg_h, part_from)
    return f, part_arch, part_from


def _solve_dp(
    profiles: Sequence[ArchitectureProfile],
    max_units: int,
    resolution: float,
) -> _DPResult:
    """Exact DP over the rate grid — fully vectorised kernels."""
    profs = tuple(profiles)
    caps = _grid_capacities(profs, resolution)
    n = max_units + 1
    g, choice = _cover_costs(profs, caps, n)
    f, part_arch, part_from = _partial_phase(
        profs, caps, g, resolution, _sliding_min_with_arg
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


def _cover_counts_all(
    choice: np.ndarray, caps: Sequence[int], n_arch: int
) -> np.ndarray:
    """Node counts of the exact-cover chain for every grid rate.

    Pointer-doubling over ``choice``'s parent chain (``r -> r - cap``)
    accumulates each rate's multiset in ``O(log chain)`` vectorised gathers
    instead of per-rate backtracking.  Rows with an unreachable cover keep
    whatever partial chain they reach — callers must only read rows whose
    DP cost is finite.
    """
    n = len(choice)
    counts = np.zeros((n, n_arch), dtype=np.int64)
    rows = np.arange(n)
    valid = choice >= 0
    counts[rows[valid], choice[valid]] = 1
    caps_arr = np.asarray(caps, dtype=np.int64)
    jump = np.where(valid, rows - caps_arr[np.where(valid, choice, 0)], 0)
    while np.any(jump > 0):
        counts += counts[jump]
        jump = jump[jump]
    return counts


def ideal_table(
    profiles: Sequence[ArchitectureProfile],
    max_rate: float,
    resolution: float = 1.0,
) -> np.ndarray:
    """Optimal power for every grid rate ``0, res, 2*res, ... >= max_rate``.

    Entry ``k`` is the minimal power of any machine multiset serving rate
    ``k * resolution``.  ``inf`` never appears for rates the architectures
    can reach (the Little node's window always contains a coverable point).
    """
    max_units = int(math.ceil(max_rate / resolution - _TOL))
    return _solve_dp(profiles, max_units, resolution).power


def ideal_combination(
    rate: float,
    profiles: Sequence[ArchitectureProfile],
    resolution: float = 1.0,
) -> Combination:
    """The exact optimal combination for one ``rate`` (DP + backtracking)."""
    if rate <= _TOL:
        return Combination.empty()
    units = int(math.ceil(rate / resolution - _TOL))
    dp = _solve_dp(profiles, units, resolution)
    if not np.isfinite(dp.power[units]):
        raise CombinationError(f"rate {rate} unreachable with given architectures")
    counts: Dict[ArchitectureProfile, int] = {}
    a = int(dp.partial_arch[units])
    r = units
    if a >= 0:
        prof = dp.profiles[a]
        counts[prof] = counts.get(prof, 0) + 1
        r = int(dp.partial_from[units])
    caps = _grid_capacities(dp.profiles, resolution)
    while r > 0:
        a = int(dp.cover_choice[r])
        if a < 0:
            raise CombinationError("DP backtracking hit an unreachable state")
        prof = dp.profiles[a]
        counts[prof] = counts.get(prof, 0) + 1
        r -= caps[a]
    return Combination.of(counts)


# ----------------------------------------------------------------------
# Precomputed tables (used by the scheduler and the bounds)
# ----------------------------------------------------------------------

class CombinationTable:
    """Combinations and their powers precomputed on the integer rate grid.

    The scheduler looks combinations up millions of times (once per
    predicted rate); this table computes them once per grid rate and turns
    lookups into array indexing.  Rates between grid points map to the next
    grid point up (conservative: never under-provisions).
    """

    def __init__(
        self,
        profiles: Sequence[ArchitectureProfile],
        combos: Sequence[Combination],
        resolution: float,
        method: str,
        *,
        _counts: Optional[np.ndarray] = None,
    ) -> None:
        if not combos:
            raise CombinationError("empty combination table")
        self._profiles = tuple(profiles)
        self._combos = list(combos)
        self.resolution = float(resolution)
        self.method = method
        n = len(self._combos)
        if _counts is None:
            index = {p.name: i for i, p in enumerate(self._profiles)}
            _counts = np.zeros((n, len(self._profiles)), dtype=np.int64)
            prev: Optional[Combination] = None
            for i, combo in enumerate(self._combos):
                if combo is prev:  # run-length lists repeat the same object
                    _counts[i] = _counts[i - 1]
                    continue
                prev = combo
                for name, cnt in combo.counts.items():
                    _counts[i, index[name]] = cnt
        self._counts = _counts
        rates = np.arange(n) * self.resolution
        self._power = _grid_power_from_counts(self._profiles, _counts, rates)
        # Power of each grid combination at the *lower* edge of its cell;
        # power is linear within a cell, so (floor, ceil) pairs allow exact
        # evaluation at off-grid loads (see power_at_load).
        floor_rates = np.maximum(np.arange(n) - 1, 0) * self.resolution
        self._power_floor = _grid_power_from_counts(
            self._profiles, _counts, floor_rates
        )

    def truncated(self, max_units: int) -> "CombinationTable":
        """A view of this table covering grid rates ``0..max_units`` only.

        Shares the underlying arrays (numpy slices), so a table built once
        for a large ``max_rate`` serves any smaller request for free —
        the monotone-reuse half of the infrastructure-level table cache.
        """
        n = max_units + 1
        if n >= len(self._combos):
            return self
        if n < 1:
            raise CombinationError("empty combination table")
        view = object.__new__(CombinationTable)
        view._profiles = self._profiles
        view._combos = self._combos[:n]
        view.resolution = self.resolution
        view.method = self.method
        view._counts = self._counts[:n]
        view._power = self._power[:n]
        view._power_floor = self._power_floor[:n]
        return view

    # -- sizes -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._combos)

    @property
    def max_rate(self) -> float:
        """Largest rate the table covers."""
        return (len(self._combos) - 1) * self.resolution

    @property
    def profiles(self) -> Tuple[ArchitectureProfile, ...]:
        """Architectures the table was built over (big to little)."""
        return self._profiles

    # -- lookups -----------------------------------------------------------
    def _index(self, rate: Union[float, np.ndarray]) -> Union[int, np.ndarray]:
        idx, oob = self.clipped_index(rate)
        if oob.any():
            raise CombinationError(
                f"rate {np.max(np.asarray(rate))} beyond table max {self.max_rate}"
            )
        return idx

    def clipped_index(
        self, rate: Union[float, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Non-raising grid indices: ``(clipped index, out-of-range mask)``.

        The one grid rounding every lookup uses (:meth:`_index` raises on
        the mask), but rates beyond the table clamp to the last row and
        are flagged instead of raising — for callers (the replay's and
        the streaming engine's decision walk) that must defer the error
        to the moment the out-of-range rate is actually consulted.  A scalar rate gives
        NumPy scalars.
        """
        arr = np.asarray(rate, dtype=float)
        if arr.ndim:
            # In-place pipeline: year-scale decision scans call this on
            # multi-hundred-MB series, where every extra temporary is a
            # real allocation + memory pass.
            tmp = arr / self.resolution
            np.subtract(tmp, _TOL, out=tmp)
            np.ceil(tmp, out=tmp)
            np.clip(tmp, 0, None, out=tmp)
            idx = tmp.astype(np.int64)
        else:
            # 0-d: ufuncs return NumPy scalars, which take no ``out=``.
            idx = np.clip(
                np.ceil(arr / self.resolution - _TOL), 0, None
            ).astype(np.int64)
            oob = idx >= len(self._combos)
            return np.minimum(idx, len(self._combos) - 1), oob
        oob = idx >= len(self._combos)
        np.minimum(idx, len(self._combos) - 1, out=idx)
        return idx, oob

    def combination_for(self, rate: float) -> Combination:
        """The combination serving ``rate`` (grid-rounded up)."""
        return self._combos[int(self._index(rate))]

    def combo_at(self, idx: int) -> Combination:
        """The combination at a grid index (e.g. from :meth:`clipped_index`).

        ``clipped_index`` applies the same grid rounding as ``_index``,
        so for in-range rates ``combo_at(clipped_index(rate)[0])`` is
        exactly ``combination_for(rate)`` without re-deriving the index —
        the decision walk relies on this.
        """
        return self._combos[idx]

    def power_for(self, rate: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Power of the table's combination at ``rate`` (vectorised)."""
        idx = self._index(rate)
        out = self._power[idx]
        return float(out) if np.ndim(out) == 0 else out

    def power_at_load(
        self, load: Union[float, np.ndarray]
    ) -> Union[float, np.ndarray]:
        """Exact power of the grid combination serving the *actual* load.

        The combination is the one :meth:`combination_for` picks (load
        rounded up to the grid), but its draw is evaluated at the
        instantaneous load via linear interpolation inside the grid cell —
        this is what the theoretical lower bound integrates.  Loads are
        evaluated in ``_BLOCK``-sample blocks, so no temporary is
        trace-length; each load gets the same float ops as in one pass.
        """
        arr = np.asarray(load, dtype=float)
        flat = arr.reshape(-1)
        out = np.empty(flat.size)
        for b0 in range(0, flat.size, _BLOCK):
            x = flat[b0 : b0 + _BLOCK]
            idx, oob = self.clipped_index(x)
            if oob.any():
                self._index(arr)  # raises, naming the whole input's maximum
            hi, lo = self._power[idx], self._power_floor[idx]
            frac = np.maximum(idx - 1, 0) * self.resolution  # cell start
            np.subtract(x, frac, out=frac)
            np.divide(frac, self.resolution, out=frac)
            frac[idx == 0] = 0.0
            np.clip(frac, 0.0, 1.0, out=frac)
            np.subtract(hi, lo, out=hi)
            np.multiply(hi, frac, out=hi)
            np.add(lo, hi, out=out[b0 : b0 + _BLOCK])
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def counts_for(self, rate: Union[float, np.ndarray]) -> np.ndarray:
        """Node-count row(s) for ``rate`` — shape ``(..., n_architectures)``."""
        return self._counts[self._index(rate)]

    @property
    def power_array(self) -> np.ndarray:
        """Power at every grid rate (read-only view)."""
        view = self._power.view()
        view.flags.writeable = False
        return view

    @property
    def counts_array(self) -> np.ndarray:
        """Counts at every grid rate, shape ``(n_rates, n_architectures)``."""
        view = self._counts.view()
        view.flags.writeable = False
        return view


def build_table(
    ordered: Sequence[ArchitectureProfile],
    thresholds: Mapping[str, float],
    max_rate: float,
    resolution: float = 1.0,
    method: str = "greedy",
    inventory: Optional[Mapping[str, int]] = None,
) -> CombinationTable:
    """Precompute combinations for rates ``0..max_rate`` on the grid.

    ``method="greedy"`` uses the paper's Step 5 builder (needs
    ``thresholds``); ``method="ideal"`` uses the exact DP (thresholds are
    ignored).  ``inventory`` bounds the machine counts per architecture
    (greedy method only); rates the inventory cannot serve raise.

    Both methods run entirely on numpy kernels (see the module docstring's
    performance notes); the tables are bit-identical to per-rate
    construction with :func:`greedy_combination` / DP backtracking.
    """
    max_units = int(math.ceil(max_rate / resolution - _TOL))
    if method == "greedy":
        counts = _greedy_counts_grid(
            ordered, thresholds, max_units, resolution, inventory
        )
    elif method == "ideal":
        if inventory is not None:
            raise CombinationError(
                "inventory bounds are only supported with the greedy method"
            )
        dp = _solve_dp(ordered, max_units, resolution)
        bad = ~np.isfinite(dp.power)
        bad[0] = False
        if bad.any():
            k = int(np.argmax(bad))
            raise CombinationError(f"rate {k * resolution} unreachable")
        caps = _grid_capacities(ordered, resolution)
        cover = _cover_counts_all(dp.cover_choice, caps, len(ordered))
        rows = np.arange(max_units + 1)
        has_partial = dp.partial_arch >= 0
        src = np.where(has_partial, dp.partial_from, rows)
        counts = cover[src].copy()
        counts[rows[has_partial], dp.partial_arch[has_partial]] += 1
    else:
        raise CombinationError(f"unknown method {method!r}")
    combos = _combos_from_counts(ordered, counts)
    return CombinationTable(ordered, combos, resolution, method, _counts=counts)
