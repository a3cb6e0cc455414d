"""Unit tests for vectorised power evaluation and the energy meter."""

import pickle

import numpy as np
import pytest

from repro.core.combination import Combination
from repro.core.profiles import TABLE_I
from repro.sim.energy import EnergyMeter, combination_power, power_breakpoints

P = TABLE_I["paravance"]
C = TABLE_I["chromebook"]
R = TABLE_I["raspberry"]


class TestBreakpoints:
    def test_starts_at_idle_sum(self):
        combo = Combination.of({P: 1, R: 2})
        caps, powers = power_breakpoints(combo)
        assert caps[0] == 0.0
        assert powers[0] == pytest.approx(69.9 + 6.2)

    def test_ends_at_peak(self):
        combo = Combination.of({P: 1, R: 2})
        caps, powers = power_breakpoints(combo)
        assert caps[-1] == pytest.approx(combo.capacity)
        assert powers[-1] == pytest.approx(combo.peak_power)

    def test_slope_ordering(self):
        combo = Combination.of({P: 1, C: 1, R: 1})
        caps, _ = power_breakpoints(combo)
        # raspberry (slope .067) then paravance (.098) then chromebook (.109)
        assert np.allclose(np.diff(caps), [9.0, 1331.0, 33.0])

    def test_cached(self):
        combo = Combination.of({P: 1})
        assert power_breakpoints(combo) is power_breakpoints(combo)

    def test_memo_is_not_pickled(self):
        """Plans and worker replies pickle their combinations: the memo
        must not grow them."""
        combo = Combination.of({P: 1, C: 2, R: 3})
        before = pickle.dumps(combo)
        power_breakpoints(combo)
        assert pickle.dumps(combo) == before


class TestCombinationPower:
    def test_matches_combination_method(self):
        combo = Combination.of({P: 1, C: 3, R: 2})
        for rate in (0.0, 5.0, 17.0, 400.0, combo.capacity):
            assert combination_power(combo, rate) == pytest.approx(
                combo.power(rate)
            )

    def test_vectorised(self):
        combo = Combination.of({P: 1, R: 1})
        rates = np.array([0.0, 9.0, 700.0, 1340.0])
        out = combination_power(combo, rates)
        assert out.shape == rates.shape
        assert np.allclose(out, [combo.power(float(r)) for r in rates])

    def test_saturates_beyond_capacity(self):
        combo = Combination.of({R: 1})
        assert combination_power(combo, 50.0) == pytest.approx(combo.peak_power)

    def test_empty_combination_draws_nothing(self):
        assert combination_power(Combination.empty(), 0.0) == 0.0


class TestEnergyMeter:
    def test_integrates_piecewise_constant(self):
        meter = EnergyMeter()
        meter.set_power("m", 10.0, 0.0)
        meter.set_power("m", 20.0, 5.0)   # 50 J so far
        meter.set_power("m", 0.0, 10.0)   # +100 J
        meter.finalize(20.0)
        assert meter.energy_of("m") == pytest.approx(150.0)

    def test_multiple_machines(self):
        meter = EnergyMeter()
        meter.set_power("a", 1.0, 0.0)
        meter.set_power("b", 2.0, 0.0)
        meter.finalize(10.0)
        assert meter.total_energy == pytest.approx(30.0)

    def test_rejects_time_reversal(self):
        meter = EnergyMeter()
        meter.set_power("m", 5.0, 10.0)
        with pytest.raises(ValueError):
            meter.set_power("m", 1.0, 5.0)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            EnergyMeter().set_power("m", -1.0, 0.0)

    def test_finalize_idempotent(self):
        meter = EnergyMeter()
        meter.set_power("m", 10.0, 0.0)
        meter.finalize(5.0)
        meter.finalize(5.0)
        assert meter.energy_of("m") == pytest.approx(50.0)

    def test_unknown_machine_has_zero(self):
        assert EnergyMeter().energy_of("ghost") == 0.0


class TestBlockFold:
    def test_fold_across_blocks_matches_one_cumsum(self):
        """A stream spanning several settle blocks folds to the final
        element of one cumsum over the whole chain, bit for bit."""
        from repro.sim.energy import _FOLD_BLOCK

        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 300.0, 4000)
        inverse = rng.integers(0, len(values), 3 * _FOLD_BLOCK)
        n_gather = len(inverse) - 7
        n_const = 2 * _FOLD_BLOCK + 3
        pieces = [
            12.5,
            (values, inverse, n_gather),
            (97.25, None, n_const),
            3.0,
            (values, None, len(values)),
        ]
        chain = np.concatenate(
            [
                [1e6, 12.5],
                values[inverse[:n_gather]],
                np.full(n_const, 97.25),
                [3.0],
                values,
            ]
        )
        assert EnergyMeter._fold(1e6, pieces) == np.cumsum(chain)[-1]
