"""Unit tests for synthetic load pattern generators."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import patterns
from repro.workload.trace import SECONDS_PER_DAY

DAY = SECONDS_PER_DAY


class TestConstant:
    def test_level(self):
        out = patterns.constant(100, 5.0)
        assert out.shape == (100,) and np.all(out == 5.0)

    def test_rejects_negative_level_and_duration(self):
        with pytest.raises(ValueError):
            patterns.constant(10, -1.0)
        with pytest.raises(ValueError):
            patterns.constant(0, 1.0)


class TestDiurnal:
    def test_peak_at_peak_hour(self):
        out = patterns.diurnal(DAY, low=10.0, high=100.0, peak_hour=15.0)
        assert np.argmax(out) == 15 * 3600
        assert out.max() == pytest.approx(100.0)

    def test_trough_half_day_later(self):
        out = patterns.diurnal(DAY, low=10.0, high=100.0, peak_hour=15.0)
        assert out[3 * 3600] == pytest.approx(10.0)  # 3 am

    def test_sharpness_narrows_peak(self):
        soft = patterns.diurnal(DAY, 0.0, 1.0, sharpness=1.0)
        sharp = patterns.diurnal(DAY, 0.0, 1.0, sharpness=3.0)
        assert sharp.mean() < soft.mean()
        assert sharp.max() == pytest.approx(soft.max())

    def test_validation(self):
        with pytest.raises(ValueError):
            patterns.diurnal(DAY, 10.0, 5.0)
        with pytest.raises(ValueError):
            patterns.diurnal(DAY, 1.0, 2.0, sharpness=0.0)


class TestWeekly:
    def test_weekend_levels(self):
        out = patterns.weekly(7 * DAY, 1.0, 0.5, start_weekday=0)
        assert out[0] == 1.0                  # Monday
        assert out[5 * DAY] == 0.5            # Saturday
        assert out[6 * DAY + 100] == 0.5      # Sunday

    def test_start_weekday_shifts(self):
        out = patterns.weekly(2 * DAY, 1.0, 0.5, start_weekday=5)
        assert out[0] == 0.5                  # starts on Saturday


# -- the whole-array expressions the in-place generators replaced ----------


def _diurnal_oracle(duration_s, low, high, peak_hour=15.0, sharpness=1.0):
    t = np.arange(duration_s, dtype=float)
    phase = 2 * math.pi * ((t / SECONDS_PER_DAY) - peak_hour / 24.0)
    base = 0.5 * (1 + np.cos(phase))
    if sharpness != 1.0:
        base = base**sharpness
    return low + (high - low) * base


def _weekly_oracle(duration_s, weekday_level, weekend_level, start_weekday):
    days = np.arange(duration_s) // SECONDS_PER_DAY + start_weekday
    is_weekend = (days % 7) >= 5
    return np.where(is_weekend, weekend_level, weekday_level).astype(float)


def _compose_oracle(base, multipliers=(), addends=()):
    out = np.asarray(base, dtype=float).copy()
    for m in multipliers:
        out *= m
    for a in addends:
        out += a
    return np.maximum(out, 0.0)


def _same_bits(got, want):
    return got.dtype == want.dtype and np.array_equal(
        got.view(np.int64), want.view(np.int64)
    )


#: Whole days, partial days and a partial week.
DURATIONS = (1, 4_321, DAY - 1, DAY + 17, 3 * DAY, 9 * DAY + 5_000)


class TestInPlaceSynthesis:
    """The in-place generators reproduce the old expressions bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        duration=st.sampled_from(DURATIONS),
        low=st.floats(0.0, 500.0),
        span=st.floats(0.0, 3000.0),
        peak_hour=st.floats(-24.0, 48.0),
        sharpness=st.sampled_from([1.0, 0.5, 2.0, 3.0, 1.3, 0.25, -1.0]),
    )
    def test_diurnal(self, duration, low, span, peak_hour, sharpness):
        if sharpness == -1.0:  # any other exponent, drawn
            sharpness = 0.1 + (low % 7.0)
        got = patterns.diurnal(duration, low, low + span, peak_hour, sharpness)
        want = _diurnal_oracle(duration, low, low + span, peak_hour, sharpness)
        assert _same_bits(got, want)

    @pytest.mark.parametrize("start_weekday", range(7))
    @pytest.mark.parametrize("duration", DURATIONS)
    def test_weekly(self, start_weekday, duration):
        for levels in ((1.0, 0.9), (1, 0), (0.3, 2.5)):
            got = patterns.weekly(duration, *levels, start_weekday=start_weekday)
            want = _weekly_oracle(duration, *levels, start_weekday)
            assert _same_bits(got, want)

    @settings(max_examples=30, deadline=None)
    @given(
        duration=st.sampled_from(DURATIONS),
        seed=st.integers(0, 2**32 - 1),
        n_mult=st.integers(0, 2),
        n_add=st.integers(0, 2),
    )
    def test_compose(self, duration, seed, n_mult, n_add):
        rng = np.random.default_rng(seed)
        base = rng.normal(0.0, 1.0, duration)
        base[rng.random(duration) < 0.1] = -0.0
        mults = [rng.normal(1.0, 0.5, duration) for _ in range(n_mult)]
        adds = [rng.normal(0.0, 1.0, duration) for _ in range(n_add)]
        got = patterns.compose(base, mults, adds)
        assert _same_bits(got, _compose_oracle(base, mults, adds))
        assert got is not base

    def test_year_recipe(self):
        """The replay benchmarks' diurnal x weekly shape, one week of it."""
        duration = 7 * DAY + 1
        got = patterns.compose(
            patterns.diurnal(duration, low=0.15, high=1.0, peak_hour=15.0),
            [patterns.weekly(duration, 1.0, 0.9)],
        )
        want = _compose_oracle(
            _diurnal_oracle(duration, 0.15, 1.0, 15.0),
            [_weekly_oracle(duration, 1.0, 0.9, 0)],
        )
        assert _same_bits(got, want)


class TestTrend:
    def test_linear_endpoints(self):
        out = patterns.linear_trend(100, 1.0, 3.0)
        assert out[0] == 1.0 and out[-1] == 3.0


class TestFlashCrowd:
    def test_shape(self):
        out = patterns.flash_crowd(
            10_000, at_s=1000, ramp_s=100, hold_s=500, decay_s=200, amplitude=50.0
        )
        assert out[999] == 0.0
        assert out[1050] == pytest.approx(25.0)  # mid-ramp
        assert out[1100] == pytest.approx(50.0)  # plateau start
        assert out[1599] == pytest.approx(50.0)  # plateau end
        assert 0 < out[1700] < 50.0              # decaying

    def test_in_place_matches_full(self):
        full = patterns.flash_crowd(5000, 100, 50, 200, 100, 10.0)
        acc = np.zeros(5000)
        patterns.add_flash_crowd(acc, 100, 50, 200, 100, 10.0)
        assert np.allclose(acc, full)

    def test_event_beyond_horizon_is_noop(self):
        acc = np.zeros(100)
        patterns.add_flash_crowd(acc, 200, 10, 10, 10, 5.0)
        assert np.all(acc == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            patterns.flash_crowd(100, 10, -1, 10, 10, 5.0)


class TestBursts:
    def test_sum_of_events(self):
        events = [(100.0, 10.0), (100.0, 5.0)]
        out = patterns.bursts(1000, events, ramp_s=0.0, hold_s=100.0, decay_s=0.0)
        assert out[150] == pytest.approx(15.0)

    def test_empty_events(self):
        assert np.all(patterns.bursts(100, []) == 0.0)


class TestMicroBursts:
    def test_multiplier_at_least_one(self, rng):
        out = patterns.micro_bursts(DAY, rng, rate_per_day=10.0)
        assert np.all(out >= 1.0)

    def test_zero_rate_is_flat(self, rng):
        assert np.all(patterns.micro_bursts(DAY, rng, rate_per_day=0.0) == 1.0)

    def test_deterministic_given_rng_seed(self):
        a = patterns.micro_bursts(DAY, np.random.default_rng(4), 5.0)
        b = patterns.micro_bursts(DAY, np.random.default_rng(4), 5.0)
        assert np.array_equal(a, b)

    def test_dispersion_varies_days(self):
        rng = np.random.default_rng(0)
        out = patterns.micro_bursts(
            10 * DAY, rng, rate_per_day=6.0, day_dispersion=2.0
        )
        per_day = out.reshape(10, DAY)
        activity = (per_day > 1.0).sum(axis=1)
        assert activity.std() > 0  # some days calm, some stormy

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            patterns.micro_bursts(DAY, rng, rate_per_day=-1.0)
        with pytest.raises(ValueError):
            patterns.micro_bursts(DAY, rng, day_dispersion=-0.5)


class TestNoise:
    def test_multiplicative_noise_mean_near_one(self, rng):
        out = patterns.multiplicative_noise(100_000, rng, sigma=0.2)
        assert out.mean() == pytest.approx(1.0, abs=0.01)
        assert np.all(out > 0)

    def test_multiplicative_zero_sigma(self, rng):
        assert np.all(patterns.multiplicative_noise(100, rng, 0.0) == 1.0)

    def test_heteroskedastic_day_cap(self):
        rng = np.random.default_rng(1)
        out = patterns.heteroskedastic_noise(
            5 * DAY, rng, sigma=0.3, day_dispersion=1.0, day_sigma_cap=0.3
        )
        per_day_std = out.reshape(5, DAY).std(axis=1)
        # lognormal with sigma <= 0.3 has std <= ~0.31
        assert np.all(per_day_std < 0.35)

    def test_heteroskedastic_mean_near_one(self):
        rng = np.random.default_rng(2)
        out = patterns.heteroskedastic_noise(2 * DAY, rng, sigma=0.1)
        assert out.mean() == pytest.approx(1.0, abs=0.01)

    def test_ar1_is_smooth(self, rng):
        out = patterns.ar1_noise(10_000, rng, sigma=0.1, corr=0.999)
        step_var = np.diff(out).std()
        total_var = out.std()
        assert step_var < 0.2 * total_var

    def test_ar1_never_negative(self, rng):
        out = patterns.ar1_noise(10_000, rng, sigma=1.0, corr=0.9)
        assert np.all(out >= 0.0)

    def test_ar1_validation(self, rng):
        with pytest.raises(ValueError):
            patterns.ar1_noise(100, rng, corr=1.0)


class TestAR1Recurrence:
    """``ar1_noise`` runs its recurrence in Python floats, block by block;
    its output must equal scipy's ``lfilter`` (the reference, imported
    here only) bit for bit, across the block edges too."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 65_535, 65_536, 65_537, 200_000]),
        seed=st.integers(0, 2**32 - 1),
        sigma=st.floats(0.0, 1.0, exclude_min=True),
        corr=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_bit_identical_to_lfilter(self, n, seed, sigma, corr):
        from scipy.signal import lfilter

        out = patterns.ar1_noise(n, np.random.default_rng(seed), sigma, corr)
        e = np.random.default_rng(seed).normal(
            0.0, sigma * math.sqrt(1 - corr**2), size=n
        )
        ref = np.maximum(1.0 + lfilter([1.0], [1.0, -corr], e), 0.0)
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))


#: Builds a 1-day synthetic WC98 trace and a 1-day pattern trace in a
#: fresh interpreter and reports whether scipy.signal got imported.
_SYNTHESIS_CHILD = """
import sys
from repro.scenarios import WorkloadSpec

WorkloadSpec().build(1)
WorkloadSpec(source="pattern").build(1)
print("scipy.signal" in sys.modules)
"""


def test_trace_synthesis_does_not_import_scipy_signal():
    """Importing scipy.signal costs about a second per process, which
    every suite worker would pay before its first scenario."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SYNTHESIS_CHILD],
        cwd=Path(__file__).resolve().parents[2],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


class TestCompose:
    def test_base_times_multipliers_plus_addends(self):
        base = np.full(4, 10.0)
        out = patterns.compose(base, [np.full(4, 2.0)], [np.full(4, 1.0)])
        assert np.all(out == 21.0)

    def test_clips_at_zero(self):
        out = patterns.compose(np.full(3, 1.0), [], [np.full(3, -5.0)])
        assert np.all(out == 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            patterns.compose(np.ones(3), [np.ones(4)])
        with pytest.raises(ValueError):
            patterns.compose(np.ones(3), [], [np.ones(4)])

    def test_make_trace_wraps(self):
        t = patterns.make_trace(np.ones(10), "x", t0=5.0)
        assert t.name == "x" and t.t0 == 5.0
