"""A fixed numpy kernel that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and their
load changes the speed of memory-bound numpy code by up to half over
tens of seconds.  :func:`reference_s` times the same kinds of work the
program spends its time on (streaming writes, a cumulative sum, a
sliding-window maximum, a random gather, a change scan, a sort) over
fixed inputs.  It does not touch the program, so a change to the program
cannot move it; dividing a sample's time by the reference time taken
around it removes most of the host's drift.  See ``README.md``.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.ndimage import maximum_filter1d

#: Elements per array: 32 MB of float64, past any cache the host shares.
SIZE = 1 << 22
#: The reference time that defines "reference speed" (s).  Scaled times
#: read as seconds on a host where :func:`reference_s` takes this long.
NOMINAL_S = 0.2


def reference_s() -> float:
    """Seconds the reference kernel takes now; frees all it allocates."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.random(SIZE)
    idx = rng.integers(0, SIZE, SIZE)
    np.cumsum(x)
    peaks = maximum_filter1d(x, 378)
    x[idx].sum()
    np.flatnonzero(np.diff(peaks) != 0)
    np.sort(x[: SIZE // 8])
    return time.perf_counter() - start
