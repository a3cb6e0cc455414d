"""Property-based tests for sliding maxima (the prediction hot path)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.bml import design
from repro.core.profiles import table_i_profiles
from repro.workload.sliding import lookahead_max, trailing_max
from table_references import lookahead_max_reference

#: The property suites pin the bit-identity contracts cheaply; they are
#: part of the `quick` iteration subset (benchmarks/run_quick.py).
pytestmark = pytest.mark.quick

series_st = arrays(
    dtype=np.float64,
    shape=st.integers(1, 400),
    elements=st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


@given(series_st, st.integers(1, 500))
def test_fast_equals_reference(arr, window):
    assert np.array_equal(
        lookahead_max(arr, window), lookahead_max_reference(arr, window)
    )


@given(series_st, st.integers(1, 500))
def test_lookahead_dominates_input(arr, window):
    assert np.all(lookahead_max(arr, window) >= arr)


@given(series_st, st.integers(1, 50), st.integers(1, 50))
def test_larger_window_dominates(arr, w1, w2):
    small, large = sorted([w1, w2])
    assert np.all(lookahead_max(arr, large) >= lookahead_max(arr, small))


@given(series_st, st.integers(1, 100))
def test_lookahead_values_come_from_input(arr, window):
    out = lookahead_max(arr, window)
    values = set(arr.tolist())
    assert all(v in values for v in out.tolist())


@given(series_st, st.integers(1, 100))
def test_trailing_is_time_reversed_lookahead(arr, window):
    assert np.array_equal(
        trailing_max(arr, window), lookahead_max(arr[::-1], window)[::-1]
    )


@given(series_st)
def test_window_full_length_is_suffix_max(arr):
    out = lookahead_max(arr, len(arr))
    assert np.array_equal(out, np.maximum.accumulate(arr[::-1])[::-1])


@given(series_st, st.integers(1, 500))
def test_trailing_fast_equals_reference(arr, window):
    """The trailing maximum matches the pure-Python deque reference."""
    reference = lookahead_max_reference(arr[::-1], min(window, len(arr)))[::-1]
    assert np.array_equal(trailing_max(arr, window), reference)


@given(series_st, st.integers(1, 100))
def test_trailing_matches_naive_definition(arr, window):
    out = trailing_max(arr, window)
    for t in range(len(arr)):
        assert out[t] == arr[max(0, t - window + 1) : t + 1].max()


# -- block edges -----------------------------------------------------------
#
# The draws above stay below 400 samples, inside one 65 536-sample block.
# These cross block edges, with windows below, at and beyond a block and
# beyond the series, against scipy's filter (imported here only) bit for
# bit.

#: Block-edge series lengths; ``"w-1"`` is one sample short of the window.
EDGE_LENGTHS = (1, "w-1", 65_535, 65_536, 65_537, 3 * 65_536 + 17)
#: Block-edge windows; ``"n"`` and ``"n+5"`` are relative to the length.
EDGE_WINDOWS = (1, 2, 3, 255, 256, 257, 378, 65_536, 65_537, "n", "n+5")


@st.composite
def edge_cases(draw):
    """``(values, window)`` at block edges, in one of four shapes."""
    n = draw(st.sampled_from(EDGE_LENGTHS))
    if n == "w-1":
        w = draw(st.sampled_from([v for v in EDGE_WINDOWS if isinstance(v, int)]))
        n = max(w - 1, 1)
    else:
        w = draw(st.sampled_from(EDGE_WINDOWS))
        w = {"n": n, "n+5": n + 5}.get(w, w)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["uniform", "ties", "falling", "rising"]))
    if shape == "uniform":
        values = rng.random(n) * 1e6
    elif shape == "ties":
        values = rng.integers(0, 8, n).astype(float)
    else:
        values = np.sort(rng.random(n))
        values = values[::-1].copy() if shape == "falling" else values
    return values, w


def _scipy_lookahead(values, window):
    from scipy.ndimage import maximum_filter1d

    w = min(window, len(values))
    return maximum_filter1d(values, size=w, mode="nearest", origin=-(w // 2))


def _scipy_trailing(values, window):
    from scipy.ndimage import maximum_filter1d

    w = min(window, len(values))
    return maximum_filter1d(
        values, size=w, mode="constant", cval=-np.inf, origin=(w - 1) // 2
    )


@settings(max_examples=60, deadline=None)
@given(edge_cases())
def test_lookahead_bit_identical_to_scipy_at_block_edges(case):
    values, window = case
    out = lookahead_max(values, window)
    assert out.dtype == np.float64 and out.shape == values.shape
    ref = _scipy_lookahead(values, window)
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(edge_cases())
def test_trailing_bit_identical_to_scipy_at_block_edges(case):
    values, window = case
    out = trailing_max(values, window)
    assert out.dtype == np.float64 and out.shape == values.shape
    ref = _scipy_trailing(values, window)
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))


@settings(max_examples=40, deadline=None)
@given(edge_cases())
def test_signed_zeros_equal_scipy_by_value(case):
    """With both ``-0.0`` and ``0.0`` in a window, which zero is the
    maximum is a tie rule, not a value: compare by value, and the grid
    rounding maps either zero to row 0."""
    values, window = case
    rng = np.random.default_rng(len(values) + window)
    zeros = rng.random(len(values)) < rng.choice([0.5, 0.99, 1.0])
    values = np.where(zeros, rng.choice([-0.0, 0.0], len(values)), values)
    assert np.array_equal(lookahead_max(values, window), _scipy_lookahead(values, window))
    assert np.array_equal(trailing_max(values, window), _scipy_trailing(values, window))


def test_signed_zeros_map_to_row_zero():
    table = design(table_i_profiles()).table(100.0)
    idx, oob = table.clipped_index(np.array([-0.0, 0.0]))
    assert idx.tolist() == [0, 0] and not oob.any()
