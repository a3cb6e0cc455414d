"""Sliding-window maxima for look-ahead load prediction.

The paper emulates its load prediction mechanism by taking, at each time
step, the **maximum load value over a look-ahead window** of 378 s (twice
the longest switch-on duration).  Computing that for multi-million-second
traces is the hot path of the proactive scheduler.  Both directions run
one NumPy kernel, a doubling maximum over blocks (:func:`_doubling_max`),
so no temporary is trace-length and every output is one of the input's
samples.  The streaming engine's short buffers take
:func:`_complete_max`.  The pure-Python monotonic deque these are
property-tested against lives in ``tests/table_references.py``.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from .patterns import _BLOCK

__all__ = [
    "lookahead_max",
    "trailing_max",
]


def _validate(values: np.ndarray, window: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return arr


def _doubling_max(arr: np.ndarray, w: int, lead: int, fill: float) -> np.ndarray:
    """``out[t] = max(ext[t : t + w])`` for ``t < len(arr)``.

    ``ext`` is ``arr`` behind ``lead`` copies of ``fill`` and followed by
    ``w - 1 - lead`` more: it is never built; a block that reaches past
    ``arr`` copies its slice of it, and any other block is read in place.
    A block of ``max(_BLOCK, 4 * w)`` outputs reads ``w - 1`` more inputs,
    so no input is read by more than two blocks, and those extra inputs
    add at most a quarter to a block's work.  Step ``s`` (1, 2,
    4, ... while ``2s <= w``) turns maxima of ``s`` samples into maxima of
    ``2s`` with one ``np.maximum`` between two buffers (overlapping
    operands would make NumPy buffer a copy), and the last step joins the
    two overlapping power-of-two spans that cover the window.  A maximum
    returns one of its operands, so each output is one of the window's
    largest samples, bit for bit.  Which of two equal operands comes back
    is up to NumPy; among float64 loads that shows only for ``-0.0``
    against ``0.0``, which the grid rounding maps to the same row.
    """
    n = len(arr)
    w = operator.index(w)  # NumPy integers too; a float window raises
    out = np.empty(n)
    block = max(_BLOCK, 4 * w)
    span = 1 << (w.bit_length() - 1)  # largest power of two <= w
    size = min(block, n) + w - 1
    x, y = np.empty(size), np.empty(size)
    for b0 in range(0, n, block):
        m = min(block, n - b0)
        length = m + w - 1
        lo = b0 - lead  # the block's first input, in ``arr`` coordinates
        a, b = max(lo, 0), min(lo + length, n)
        if b - a == length:
            src = arr[a:b]  # no fill: the first step reads ``arr`` itself
        else:
            x[: a - lo] = fill
            x[a - lo : b - lo] = arr[a:b]
            x[b - lo : length] = fill
            src = x
        s = 1
        while 2 * s <= w:
            length -= s
            dst = x if src is y else y
            np.maximum(src[:length], src[s : length + s], out=dst[:length])
            src = dst
            s *= 2
        np.maximum(
            src[:m], src[w - span : w - span + m], out=out[b0 : b0 + m]
        )
    return out


def lookahead_max(values: Sequence[float], window: int) -> np.ndarray:
    """``out[t] = max(values[t : t + window])`` for every ``t``.

    Near the end of the series the window truncates to the remaining
    samples (the scheduler keeps serving the real tail of the trace).
    Past the end, blocks repeat the final sample, which every truncated
    window holds already (scipy's ``mode="nearest"``).
    """
    arr = _validate(np.asarray(values), window)
    n = len(arr)
    if n == 0:
        return arr.copy()
    return _doubling_max(arr, min(window, n), 0, arr[-1])


def _complete_max(values: np.ndarray, w: int, k: int) -> np.ndarray:
    """``max(values[t : t + w])`` for ``t < k``: windows ``values`` holds whole.

    The streaming engine's step (``k + w - 1 <= len(values)``): its
    ``w - 1`` kept samples plus a chunk, and the ``k`` predictions the
    chunk completes.  For ``k <= w`` window ``t`` is ``values[t:k]``
    followed by ``values[k : t + w]``, so its maximum joins a suffix
    maximum of ``values[:k]`` with a prefix maximum of ``values[k:]``: two
    accumulations and one maximum, where the doubling kernel makes about
    ``log2(w)`` NumPy calls.  Longer runs (a backlog fed at once) take
    :func:`lookahead_max`.  The values equal the doubling kernel's; which
    of two signed zeros comes back may differ, as there.
    """
    if k > w:
        return lookahead_max(values[: k + w - 1], w)[:k]
    head = np.maximum.accumulate(values[k - 1 :: -1])[::-1]  # max(values[t:k])
    rest = np.maximum.accumulate(values[k : k + w - 1])  # max(values[k:k+j+1])
    d = w - k
    lo = 0 if d else 1  # with k == w, window 0 is values[:k]
    np.maximum(head[lo:], rest[d - 1 + lo : d - 1 + k], out=head[lo:])
    return head


def trailing_max(values: Sequence[float], window: int) -> np.ndarray:
    """``out[t] = max(values[max(0, t - window + 1) : t + 1])``.

    The backward-looking counterpart, useful for reactive policies that
    hold capacity for recently seen peaks.  The same doubling kernel as
    :func:`lookahead_max`, with each window ending at ``t``: blocks put
    ``-inf`` before the first sample, which truncates the leading
    windows exactly.
    """
    arr = _validate(np.asarray(values), window)
    n = len(arr)
    if n == 0:
        return arr.copy()
    w = min(window, n)
    return _doubling_max(arr, w, w - 1, -np.inf)
