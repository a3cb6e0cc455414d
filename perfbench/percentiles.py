"""Percentiles that refuse to report a tail they did not sample."""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


class TooFewSamples(ValueError):
    """The requested percentile has fewer than ``MIN_TAIL`` samples beyond it."""


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked strictly above the nearest-rank ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def percentile(values: Sequence[float], q: float, min_tail: int = MIN_TAIL) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises :class:`TooFewSamples` when fewer than ``min_tail`` samples
    lie beyond it (so a p99 needs at least 1000 samples), and for
    ``q == 100``, which has none beyond it by definition.
    """
    n = len(values)
    if n == 0:
        raise TooFewSamples("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    beyond = samples_beyond(n, q)
    if beyond < min_tail:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it (need {min_tail})"
        )
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted(values)[rank - 1]
