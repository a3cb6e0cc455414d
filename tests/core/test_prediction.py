"""Unit tests for load predictors."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prediction import (
    EWMAPredictor,
    LookAheadMaxPredictor,
    NoisyPredictor,
    PerfectPredictor,
    TrailingMaxPredictor,
    cached_prediction_series,
    paper_window,
)
from repro.core.profiles import table_i_profiles
from repro.workload.trace import LoadTrace


@pytest.fixture()
def sawtooth():
    return np.array([0.0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0, 9, 0, 0], dtype=float)


class TestPaperWindow:
    def test_table_i_gives_378(self):
        assert paper_window(table_i_profiles()) == 378

    def test_custom_factor(self):
        assert paper_window(table_i_profiles(), factor=1.0) == 189


class TestLookAheadMax:
    def test_window_one_is_identity(self, sawtooth):
        assert np.array_equal(LookAheadMaxPredictor(1).series(sawtooth), sawtooth)

    def test_sees_upcoming_peak(self, sawtooth):
        pred = LookAheadMaxPredictor(3).series(sawtooth)
        # index 9 sees values [1, 0, 9] -> 9
        assert pred[9] == 9.0
        # index 8 sees [2, 1, 0] -> 2
        assert pred[8] == 2.0

    def test_matches_naive_definition(self, sawtooth):
        w = 4
        pred = LookAheadMaxPredictor(w).series(sawtooth)
        naive = [sawtooth[t : t + w].max() for t in range(len(sawtooth))]
        assert np.allclose(pred, naive)

    def test_accepts_loadtrace(self, sawtooth):
        trace = LoadTrace(sawtooth)
        assert np.array_equal(
            LookAheadMaxPredictor(2).series(trace),
            LookAheadMaxPredictor(2).series(sawtooth),
        )

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            LookAheadMaxPredictor(0)

    def test_never_below_actual_load(self, sawtooth):
        pred = LookAheadMaxPredictor(5).series(sawtooth)
        assert np.all(pred >= sawtooth)


class TestPerfect:
    def test_is_identity(self, sawtooth):
        assert np.array_equal(PerfectPredictor().series(sawtooth), sawtooth)

    def test_returns_copy(self, sawtooth):
        out = PerfectPredictor().series(sawtooth)
        out[0] = 99.0
        assert sawtooth[0] == 0.0


class TestTrailingMax:
    def test_matches_naive_definition(self, sawtooth):
        w = 3
        pred = TrailingMaxPredictor(w).series(sawtooth)
        naive = [sawtooth[max(0, t - w + 1) : t + 1].max() for t in range(len(sawtooth))]
        assert np.allclose(pred, naive)

    def test_lags_rising_edges(self, sawtooth):
        pred = TrailingMaxPredictor(3).series(sawtooth)
        # at the spike (index 11) the trailing max includes it ...
        assert pred[11] == 9.0
        # ... but just before it does not (no oracle)
        assert pred[10] < 9.0


class TestEWMA:
    def test_validation(self):
        with pytest.raises(ValueError):
            EWMAPredictor(alpha=0.0)
        with pytest.raises(ValueError):
            EWMAPredictor(alpha=0.5, headroom=0.0)

    def test_constant_load_converges_to_headroom(self):
        load = np.full(1000, 10.0)
        pred = EWMAPredictor(alpha=0.05, headroom=1.2).series(load)
        assert pred[-1] == pytest.approx(12.0, rel=1e-6)

    def test_prediction_uses_only_past(self):
        load = np.array([10.0] * 50 + [100.0])
        pred = EWMAPredictor(alpha=0.5, headroom=1.0).series(load)
        # the step at t=50 cannot influence the prediction made for t=50
        assert pred[50] == pytest.approx(10.0, rel=1e-6)

    def test_matches_python_recursion(self):
        rng = np.random.default_rng(5)
        load = rng.random(200) * 10
        a = 0.1
        pred = EWMAPredictor(alpha=a, headroom=1.0).series(load)
        acc = load[0]
        ref = [load[0]]
        for v in load[:-1]:
            acc = a * v + (1 - a) * acc
            ref.append(acc)
        assert np.allclose(pred, ref)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 65_535, 65_536, 65_537, 140_000]),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.0, 1.0, exclude_min=True),
        headroom=st.floats(0.01, 10.0),
        integer=st.booleans(),
    )
    def test_bit_identical_to_lfilter(self, n, seed, alpha, headroom, integer):
        """The EWMA runs its recurrence in Python floats, block by block;
        it must equal scipy's ``lfilter`` (the reference, imported here
        only) bit for bit, across the block edges too."""
        from scipy.signal import lfilter

        load = np.random.default_rng(seed).uniform(0.0, 3000.0, n)
        if integer:
            load = np.round(load)
        out = EWMAPredictor(alpha=alpha, headroom=headroom).series(load)
        zi = np.array([(1.0 - alpha) * load[0]])
        ew, _ = lfilter([alpha], [1.0, -(1.0 - alpha)], load, zi=zi)
        ref = np.empty_like(load)
        ref[0] = load[0] * headroom
        ref[1:] = ew[:-1] * headroom
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))


class TestNoisy:
    def test_deterministic_given_seed(self, sawtooth):
        a = NoisyPredictor(sigma=0.3, seed=7).series(sawtooth)
        b = NoisyPredictor(sigma=0.3, seed=7).series(sawtooth)
        assert np.array_equal(a, b)

    def test_zero_sigma_unit_bias_is_clean(self, sawtooth):
        clean = LookAheadMaxPredictor().series(sawtooth)
        noisy = NoisyPredictor(sigma=0.0, bias=1.0).series(sawtooth)
        assert np.array_equal(clean, noisy)

    def test_bias_scales(self, sawtooth):
        doubled = NoisyPredictor(sigma=0.0, bias=2.0).series(sawtooth)
        clean = LookAheadMaxPredictor().series(sawtooth)
        assert np.allclose(doubled, 2 * clean)

    def test_never_negative(self, sawtooth):
        pred = NoisyPredictor(sigma=2.0, seed=1).series(sawtooth)
        assert np.all(pred >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoisyPredictor(sigma=-0.1)
        with pytest.raises(ValueError):
            NoisyPredictor(bias=0.0)

    def test_name_mentions_base(self):
        p = NoisyPredictor(base=PerfectPredictor(), sigma=0.2)
        assert "perfect" in p.name


def _trace(seed: int, n: int = 800, name: str = "clamp-prop") -> LoadTrace:
    rng = np.random.default_rng(seed)
    return LoadTrace(rng.uniform(0.0, 2500.0, size=n), name=name)


class TestKeySeparation:
    """The replay's predict-and-clamp step returns each (trace, window,
    clamp) combination's own series, whatever was computed before."""

    def test_window_clamp_and_trace_never_collide(self):
        traces = [_trace(3, name="t3"), _trace(4, name="t4")]
        windows = [30, 200]
        clamps = [None, 700.0]
        # Populate every combination, then re-query: each must return
        # exactly its own freshly computed series.
        for trace in traces:
            for window in windows:
                for clamp in clamps:
                    cached_prediction_series(
                        LookAheadMaxPredictor(window), trace, clamp=clamp
                    )
        for trace in traces:
            for window in windows:
                for clamp in clamps:
                    predictor = LookAheadMaxPredictor(window)
                    expect = predictor.series(trace)
                    if clamp is not None:
                        expect = np.minimum(expect, clamp)
                    got = cached_prediction_series(
                        predictor, trace, clamp=clamp
                    )
                    assert np.array_equal(got, expect), (
                        trace.name, window, clamp
                    )

    def test_clamped_and_unclamped_entries_are_distinct(self):
        trace = _trace(5)
        predictor = LookAheadMaxPredictor(60)
        unclamped = cached_prediction_series(predictor, trace)
        clamped = cached_prediction_series(predictor, trace, clamp=500.0)
        assert unclamped is not clamped
        assert float(np.max(clamped)) <= 500.0
        assert float(np.max(unclamped)) > 500.0


class TestPredictInterface:
    def test_predict_single_step(self, sawtooth):
        p = LookAheadMaxPredictor(3)
        assert p.predict(sawtooth, 9) == 9.0


#: Imports the CLI and computes one look-ahead and one EWMA series in a
#: fresh interpreter, then reports whether any scipy module got imported.
_NO_SCIPY_CHILD = """
import sys
import numpy as np
import repro.cli
from repro.core.prediction import EWMAPredictor, LookAheadMaxPredictor

LookAheadMaxPredictor().series(np.arange(5000.0) % 97.0)
EWMAPredictor().series(np.arange(5000.0) % 97.0)
print(any(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
"""


def test_import_and_lookahead_series_load_no_scipy():
    """The sliding maxima are NumPy kernels and the EWMA a Python-float
    recurrence: importing ``repro`` and predicting must not pay scipy's
    import (``scipy.signal`` alone costs about a second per process)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_CHILD],
        cwd=Path(__file__).resolve().parents[2],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
