"""Steps 3-4 of the BML methodology: crossing points between architectures.

The *minimum utilization threshold* of an architecture is the performance
rate from which using one (partially loaded) node of it draws less power
than serving the same rate with smaller machines.  The rates where the
power profiles meet are the paper's *crossing points*.

* **Step 3** compares each architecture against homogeneous stacks of the
  next smaller surviving candidate.  An architecture whose profile *never*
  crosses the smaller one's stack within its own performance range can
  never win and is removed (this eliminates Graphene in the paper's
  evaluation).
* **Step 4** re-evaluates the thresholds against *ideal mixed combinations*
  of **all** smaller surviving architectures (computed with the exact DP
  of :mod:`repro.core.combination`), because e.g. topping up full Medium
  nodes with Little nodes postpones the point where Big pays off — in the
  paper this raises Big's threshold, and for the real machines yields the
  published thresholds 1 / 10 / 529 req/s.

Ties prefer the bigger architecture (switching to one bigger node at equal
power reduces node count and future switching).
The Little architecture's threshold is 1 grid unit by definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .combination import ideal_table
from .profiles import ArchitectureProfile

__all__ = [
    "CrossingReport",
    "crossing_vs_stack",
    "crossing_vs_ideal",
    "step3_thresholds",
    "step4_thresholds",
    "compute_thresholds",
]

_TOL = 1e-9


@dataclass(frozen=True)
class CrossingReport:
    """Result of the full Step 3 + Step 4 pipeline.

    ``kept`` are the final candidates big to little, ``thresholds`` their
    Step 4 minimum utilization thresholds (in application-metric units),
    ``step3`` the intermediate Step 3 thresholds of the kept candidates,
    and ``removed`` maps eliminated architectures to the step that removed
    them (``"step3"`` / ``"step4"``).
    """

    kept: Tuple[ArchitectureProfile, ...]
    thresholds: Dict[str, float]
    step3: Dict[str, float]
    removed: Dict[str, str]


def crossing_vs_stack(
    big: ArchitectureProfile,
    little: ArchitectureProfile,
    resolution: float = 1.0,
) -> Optional[float]:
    """Step 3 crossing point of ``big`` against homogeneous ``little`` stacks.

    Returns the smallest grid rate (in ``(0, big.max_perf]``) at which one
    ``big`` node draws no more power than the minimal homogeneous stack of
    ``little`` nodes, or ``None`` when the profiles never cross.
    """
    max_units = int(math.floor(big.max_perf / resolution + _TOL))
    rates = np.arange(1, max_units + 1) * resolution
    big_power = big.idle_power + big.slope * rates
    stack = np.asarray(little.stack_power(rates))
    wins = big_power <= stack + _TOL
    if not np.any(wins):
        return None
    return float(rates[int(np.argmax(wins))])


class _SharedIdealTables:
    """Exact-DP adversary tables shared across Step-4 candidates.

    The Step-4 adversary of candidate ``kept[i]`` is the ideal-combination
    power curve of the suffix ``kept[i+1:]``; the elimination loop
    re-queries the same suffix with ever-bigger candidates as it removes
    architectures.  The DP is prefix-stable (every entry depends only on
    smaller rates), so each suffix's table is built once at the largest
    rate requested so far and smaller requests are served as zero-copy
    slices — monotone reuse, exactly like the infrastructure table cache.
    """

    def __init__(self, resolution: float) -> None:
        self.resolution = resolution
        self._tables: Dict[Tuple[str, ...], np.ndarray] = {}
        self.builds = 0
        self.hits = 0

    def power(
        self, smaller: Sequence[ArchitectureProfile], max_units: int
    ) -> np.ndarray:
        """Ideal power for grid rates ``0..max_units`` of ``smaller``."""
        key = tuple(p.name for p in smaller)
        table = self._tables.get(key)
        if table is None or len(table) < max_units + 1:
            self.builds += 1
            table = ideal_table(
                smaller, max_units * self.resolution, self.resolution
            )
            self._tables[key] = table
        else:
            self.hits += 1
        return table[: max_units + 1]


def crossing_vs_ideal(
    big: ArchitectureProfile,
    smaller: Sequence[ArchitectureProfile],
    resolution: float = 1.0,
    tables: Optional[_SharedIdealTables] = None,
) -> Optional[float]:
    """Step 4 crossing point of ``big`` against ideal mixed combinations.

    ``smaller`` are all surviving architectures below ``big``; their ideal
    combination power curve (exact DP) is the adversary.  ``tables``
    (optional) supplies shared adversary tables so repeated queries over
    the same survivor set reuse one DP solve.
    """
    if not smaller:
        return resolution  # nothing below: usable from the first grid rate
    max_units = int(math.floor(big.max_perf / resolution + _TOL))
    if tables is not None:
        ideal = tables.power(smaller, max_units)
    else:
        ideal = ideal_table(smaller, max_units * resolution, resolution)
    rates = np.arange(1, max_units + 1) * resolution
    big_power = big.idle_power + big.slope * rates
    wins = big_power <= ideal[1:] + _TOL
    if not np.any(wins):
        return None
    return float(rates[int(np.argmax(wins))])


def step3_thresholds(
    ordered: Sequence[ArchitectureProfile],
    resolution: float = 1.0,
) -> Tuple[List[ArchitectureProfile], Dict[str, float], Dict[str, str]]:
    """Step 3: thresholds vs the next smaller candidate; drop non-crossers.

    Works on the Step 2 output (big to little).  When an architecture never
    crosses the next smaller surviving one, it is removed and the
    comparison repeats with the candidate above it, until the list is
    stable.  The Little architecture keeps threshold ``resolution``.
    """
    kept = list(ordered)
    removed: Dict[str, str] = {}
    # The elimination loop and the threshold pass evaluate the same pure
    # crossing computations; memoise them per (big, little) pair.
    cache: Dict[Tuple[str, str], Optional[float]] = {}

    def cross(big: ArchitectureProfile, little: ArchitectureProfile) -> Optional[float]:
        key = (big.name, little.name)
        if key not in cache:
            cache[key] = crossing_vs_stack(big, little, resolution)
        return cache[key]

    changed = True
    while changed:
        changed = False
        for i in range(len(kept) - 2, -1, -1):
            if cross(kept[i], kept[i + 1]) is None:
                # ``big`` can never beat stacks of the machine right below
                # it; with profiles sorted by efficiency this means it never
                # participates in an ideal combination.
                removed[kept[i].name] = "step3"
                del kept[i]
                changed = True
                break
    thresholds: Dict[str, float] = {}
    for i, prof in enumerate(kept):
        if i == len(kept) - 1:
            thresholds[prof.name] = resolution
        else:
            result = cross(prof, kept[i + 1])
            assert result is not None  # guaranteed by the elimination loop
            thresholds[prof.name] = result
    return kept, thresholds, removed


def step4_thresholds(
    ordered: Sequence[ArchitectureProfile],
    resolution: float = 1.0,
) -> Tuple[List[ArchitectureProfile], Dict[str, float], Dict[str, str]]:
    """Step 4: thresholds vs ideal combinations of all smaller survivors."""
    kept = list(ordered)
    removed: Dict[str, str] = {}
    # The Step 4 adversary (exact-DP table of all smaller survivors) is the
    # expensive part and is recomputed by both the elimination loop and the
    # threshold pass; memoise crossings per (big, smaller-set) key and share
    # the underlying DP tables per survivor set across candidates (after an
    # elimination, the bigger candidate inherits the removed one's suffix,
    # whose table is then served as a slice instead of a fresh solve).
    cache: Dict[Tuple[str, Tuple[str, ...]], Optional[float]] = {}
    tables = _SharedIdealTables(resolution)

    def cross(
        big: ArchitectureProfile, smaller: List[ArchitectureProfile]
    ) -> Optional[float]:
        key = (big.name, tuple(p.name for p in smaller))
        if key not in cache:
            cache[key] = crossing_vs_ideal(big, smaller, resolution, tables)
        return cache[key]

    changed = True
    while changed:
        changed = False
        for i in range(len(kept) - 2, -1, -1):
            if cross(kept[i], kept[i + 1 :]) is None:
                removed[kept[i].name] = "step4"
                del kept[i]
                changed = True
                break
    thresholds: Dict[str, float] = {}
    for i, prof in enumerate(kept):
        if i == len(kept) - 1:
            thresholds[prof.name] = resolution
        else:
            result = cross(prof, kept[i + 1 :])
            assert result is not None
            thresholds[prof.name] = result
    return kept, thresholds, removed


def compute_thresholds(
    ordered: Sequence[ArchitectureProfile],
    resolution: float = 1.0,
) -> CrossingReport:
    """Run Steps 3 and 4 and return the consolidated report."""
    kept3, thr3, removed3 = step3_thresholds(ordered, resolution)
    kept4, thr4, removed4 = step4_thresholds(kept3, resolution)
    removed = dict(removed3)
    removed.update(removed4)
    step3_kept = {p.name: thr3[p.name] for p in kept4}
    return CrossingReport(
        kept=tuple(kept4),
        thresholds=thr4,
        step3=step3_kept,
        removed=removed,
    )
