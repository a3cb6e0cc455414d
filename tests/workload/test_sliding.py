"""Unit tests for sliding-window maxima."""

import numpy as np
import pytest

from repro.workload.sliding import _complete_max, lookahead_max, trailing_max
from table_references import lookahead_max_reference


def naive_lookahead(arr, w):
    return np.array([arr[t : t + w].max() for t in range(len(arr))])


def naive_trailing(arr, w):
    return np.array([arr[max(0, t - w + 1) : t + 1].max() for t in range(len(arr))])


class TestLookahead:
    @pytest.mark.parametrize("window", [1, 2, 3, 7, 100, 378, 10_000])
    def test_matches_naive(self, rng, window):
        arr = rng.random(2000)
        assert np.array_equal(lookahead_max(arr, window), naive_lookahead(arr, window))

    def test_reference_matches_fast(self, rng):
        arr = rng.random(3000)
        for w in (1, 5, 64, 377, 378):
            assert np.array_equal(
                lookahead_max(arr, w), lookahead_max_reference(arr, w)
            )

    def test_window_one_identity(self, rng):
        arr = rng.random(50)
        assert np.array_equal(lookahead_max(arr, 1), arr)

    def test_window_longer_than_series(self):
        arr = np.array([3.0, 1.0, 2.0])
        out = lookahead_max(arr, 100)
        assert list(out) == [3.0, 2.0, 2.0]

    def test_constant_series(self):
        arr = np.full(10, 4.2)
        assert np.all(lookahead_max(arr, 5) == 4.2)

    def test_handles_ties(self):
        arr = np.array([2.0, 2.0, 2.0, 1.0])
        assert list(lookahead_max(arr, 2)) == [2.0, 2.0, 2.0, 1.0]

    def test_empty_series(self):
        out = lookahead_max(np.array([]), 5)
        assert out.size == 0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            lookahead_max(rng.random(10), 0)
        with pytest.raises(ValueError):
            lookahead_max(rng.random((2, 5)), 3)

    def test_numpy_integer_window(self, rng):
        arr = rng.random(100)
        assert np.array_equal(lookahead_max(arr, np.int64(7)), lookahead_max(arr, 7))
        assert np.array_equal(trailing_max(arr, np.int32(7)), trailing_max(arr, 7))
        with pytest.raises(TypeError):
            lookahead_max(arr, 7.0)

    def test_never_below_input(self, rng):
        arr = rng.random(500)
        assert np.all(lookahead_max(arr, 17) >= arr)


class TestTrailing:
    @pytest.mark.parametrize("window", [1, 3, 50, 5000])
    def test_matches_naive(self, rng, window):
        arr = rng.random(1000)
        assert np.array_equal(trailing_max(arr, window), naive_trailing(arr, window))

    def test_mirror_of_lookahead(self, rng):
        arr = rng.random(400)
        w = 13
        assert np.array_equal(
            trailing_max(arr, w), lookahead_max(arr[::-1], w)[::-1]
        )


class TestCompleteWindows:
    """The streaming engine's kernel: the first ``k`` look-ahead maxima,
    whose windows the buffer holds whole."""

    @pytest.mark.parametrize("window", [1, 2, 7, 378])
    @pytest.mark.parametrize("k_of_w", ["1", "w-1", "w", "w+1", "3w"])
    @pytest.mark.parametrize("extra", [0, 5])
    def test_matches_lookahead_head(self, rng, window, k_of_w, extra):
        w = window
        k = {"1": 1, "w-1": max(w - 1, 1), "w": w, "w+1": w + 1, "3w": 3 * w}[k_of_w]
        values = np.round(rng.random(k + w - 1 + extra) * 50.0)
        got = _complete_max(values, w, k)
        assert got.shape == (k,)
        assert np.array_equal(got, lookahead_max(values, w)[:k])
        assert np.array_equal(got, naive_lookahead(values, w)[:k])

