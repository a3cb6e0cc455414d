"""Unit tests for combinations: Step 5 greedy, exact DP, tables."""

import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.combination import (
    Combination,
    CombinationError,
    CombinationTable,
    build_table,
    greedy_combination,
    ideal_combination,
    ideal_table,
)
from repro.core.profiles import TABLE_I, ArchitectureProfile


@pytest.fixture(scope="module")
def trio():
    return (TABLE_I["paravance"], TABLE_I["chromebook"], TABLE_I["raspberry"])


@pytest.fixture(scope="module")
def thresholds():
    return {"paravance": 529.0, "chromebook": 10.0, "raspberry": 1.0}


class TestCombinationBasics:
    def test_normalisation_sorts_and_drops_zeros(self, trio):
        p, c, r = trio
        combo = Combination(((r, 1), (p, 2), (c, 0)))
        assert [x.name for x in combo.profiles] == ["paravance", "raspberry"]
        assert combo.counts == {"paravance": 2, "raspberry": 1}

    def test_equality_ignores_order(self, trio):
        p, c, _ = trio
        assert Combination(((p, 1), (c, 2))) == Combination(((c, 2), (p, 1)))

    def test_rejects_negative_counts(self, trio):
        with pytest.raises(CombinationError):
            Combination(((trio[0], -1),))

    def test_empty(self):
        e = Combination.empty()
        assert not e
        assert e.capacity == 0 and e.total_nodes == 0 and e.idle_power == 0

    def test_capacity_and_node_count(self, trio):
        p, c, r = trio
        combo = Combination.of({p: 1, c: 2, r: 1})
        assert combo.capacity == 1331 + 66 + 9
        assert combo.total_nodes == 4

    def test_idle_and_peak_power(self, trio):
        p, c, r = trio
        combo = Combination.of({p: 1, c: 2})
        assert combo.idle_power == pytest.approx(69.9 + 8.0)
        assert combo.peak_power == pytest.approx(200.5 + 15.2)

    def test_count_of_absent_is_zero(self, trio):
        combo = Combination.of({trio[0]: 1})
        assert combo.count_of("raspberry") == 0

    def test_describe(self, trio):
        p, _, r = trio
        assert Combination.of({p: 2, r: 1}).describe() == "2xparavance + 1xraspberry"
        assert Combination.empty().describe() == "(empty)"


#: Pickles a hashed combination under one hash seed (``dump``), or looks
#: a pickled one up among its equals under another (``load``).
_HASH_CHILD = """
import pickle, sys
from repro.core.combination import Combination
from repro.core.profiles import TABLE_I

p, c = TABLE_I["paravance"], TABLE_I["chromebook"]
fresh = Combination.of({p: 1, c: 2})
if sys.argv[1] == "dump":
    hash(fresh)
    sys.stdout.write(pickle.dumps(fresh).hex())
else:
    loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
    table = {fresh: "found"}
    print(table.get(loaded), hash(loaded) == hash(fresh), loaded in {fresh})
"""


class TestCombinationHash:
    """``__hash__`` is memoised on the instance, as ``counts`` is."""

    def test_equal_constructions_hash_equal(self, trio):
        p, c, r = trio
        built = Combination.of({r: 1, p: 2, c: 0})
        normalized = Combination._from_normalized(((p, 2), (r, 1)))
        assert built == normalized
        assert hash(built) == hash(normalized) == hash((built.items,))
        assert hash(built) == hash(built)  # the memo answers the same
        assert {built: 1}[normalized] == 1

    def test_memo_stays_out_of_the_pickle(self, trio):
        combo = Combination.of({trio[0]: 1, trio[2]: 3})
        hash(combo)
        loaded = pickle.loads(pickle.dumps(combo))
        assert "_hash" in combo.__dict__ and "_hash" not in loaded.__dict__
        assert loaded == combo and hash(loaded) == hash(combo)

    def test_pickled_to_another_hash_seed_finds_its_equal(self):
        def child(mode, seed, stdin=None):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", _HASH_CHILD, mode],
                cwd=Path(__file__).resolve().parents[2],
                env=env,
                input=stdin,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        pickled = child("dump", "1")
        assert child("load", "2", pickled).split() == ["found", "True", "True"]


class TestCombinationPower:
    def test_power_at_zero_is_idle(self, trio):
        combo = Combination.of({trio[0]: 1, trio[2]: 1})
        assert combo.power(0.0) == pytest.approx(69.9 + 3.1)

    def test_power_at_capacity_is_peak(self, trio):
        combo = Combination.of({trio[0]: 1, trio[2]: 1})
        assert combo.power(combo.capacity) == pytest.approx(200.5 + 3.7)

    def test_power_fills_cheapest_slope_first(self, trio):
        p, _, r = trio
        combo = Combination.of({p: 1, r: 1})
        # raspberry slope (0.0667) < paravance slope (0.0981): 9 units go to
        # the raspberry first.
        expected = 69.9 + 3.1 + r.slope * 9.0
        assert combo.power(9.0) == pytest.approx(expected)

    def test_power_rejects_beyond_capacity(self, trio):
        combo = Combination.of({trio[2]: 1})
        with pytest.raises(CombinationError):
            combo.power(10.0)

    def test_power_rejects_negative(self, trio):
        with pytest.raises(CombinationError):
            Combination.of({trio[2]: 1}).power(-1.0)

    def test_canonical_at_least_optimal(self, trio):
        p, c, r = trio
        combo = Combination.of({p: 1, c: 2, r: 1})
        for rate in (0.0, 5.0, 100.0, 1000.0, combo.capacity):
            assert combo.power_canonical(rate) >= combo.power(rate) - 1e-9

    def test_canonical_fills_big_first(self, trio):
        p, _, r = trio
        combo = Combination.of({p: 1, r: 1})
        # canonical assignment: all 500 units on the big node
        assert combo.power_canonical(500.0) == pytest.approx(
            69.9 + p.slope * 500.0 + 3.1
        )


class TestCombinationAlgebra:
    def test_diff(self, trio):
        p, c, r = trio
        a = Combination.of({p: 1, c: 2})
        b = Combination.of({p: 2, r: 1})
        assert a.diff(b) == {"paravance": 1, "chromebook": -2, "raspberry": 1}

    def test_diff_identical_is_empty(self, trio):
        a = Combination.of({trio[0]: 1})
        assert a.diff(a) == {}

    def test_union_max(self, trio):
        p, c, r = trio
        a = Combination.of({p: 1, c: 2})
        b = Combination.of({c: 1, r: 3})
        u = a.union_max(b)
        assert u.counts == {"paravance": 1, "chromebook": 2, "raspberry": 3}


class TestGreedy:
    def test_zero_rate_is_empty(self, trio, thresholds):
        assert greedy_combination(0.0, trio, thresholds) == Combination.empty()

    def test_tiny_rate_uses_one_little(self, trio, thresholds):
        combo = greedy_combination(3.0, trio, thresholds)
        assert combo.counts == {"raspberry": 1}

    def test_rate_at_medium_threshold_switches(self, trio, thresholds):
        assert greedy_combination(9.0, trio, thresholds).counts == {"raspberry": 1}
        assert greedy_combination(10.0, trio, thresholds).counts == {"chromebook": 1}

    def test_rate_at_big_threshold_switches(self, trio, thresholds):
        below = greedy_combination(528.0, trio, thresholds)
        at = greedy_combination(529.0, trio, thresholds)
        assert "paravance" not in below.counts
        assert at.counts == {"paravance": 1}

    def test_paper_style_mixed_combination(self, trio, thresholds):
        combo = greedy_combination(1400.0, trio, thresholds)
        assert combo.counts == {"paravance": 1, "chromebook": 2, "raspberry": 1}

    def test_fills_full_bigs_first(self, trio, thresholds):
        combo = greedy_combination(4000.0, trio, thresholds)
        assert combo.counts["paravance"] == 3  # 3993 capacity + remainder
        assert combo.capacity >= 4000.0

    def test_exact_multiple_of_big(self, trio, thresholds):
        combo = greedy_combination(2662.0, trio, thresholds)
        assert combo.counts == {"paravance": 2}

    def test_capacity_always_covers_rate(self, trio, thresholds):
        for rate in (1, 9, 10, 33, 34, 529, 1331, 1332, 5000):
            combo = greedy_combination(float(rate), trio, thresholds)
            assert combo.capacity >= rate

    def test_rejects_negative(self, trio, thresholds):
        with pytest.raises(CombinationError):
            greedy_combination(-1.0, trio, thresholds)

    def test_rejects_empty_architectures(self, thresholds):
        with pytest.raises(CombinationError):
            greedy_combination(5.0, [], thresholds)


class TestIdealDP:
    def test_matches_brute_force_small(self):
        a = ArchitectureProfile(name="a", max_perf=7, idle_power=3, max_power=9)
        b = ArchitectureProfile(name="b", max_perf=3, idle_power=1, max_power=4)
        tbl = ideal_table([a, b], 30.0)
        for rate in range(1, 31):
            best = float("inf")
            for na, nb in itertools.product(range(6), range(12)):
                combo = Combination.of({a: na, b: nb})
                if combo.capacity >= rate:
                    best = min(best, combo.power(rate))
            assert tbl[rate] == pytest.approx(best)

    def test_table_monotone_nondecreasing(self, trio):
        tbl = ideal_table(trio, 2000.0)
        assert np.all(np.diff(tbl) >= -1e-9)

    def test_zero_rate_costs_nothing(self, trio):
        assert ideal_table(trio, 10.0)[0] == 0.0

    def test_ideal_combination_backtracks_consistently(self, trio):
        for rate in (1.0, 10.0, 529.0, 1400.0, 3000.0):
            combo = ideal_combination(rate, trio)
            assert combo.capacity >= rate
            tbl = ideal_table(trio, rate)
            assert combo.power(rate) == pytest.approx(tbl[int(np.ceil(rate))])

    def test_ideal_never_above_greedy(self, trio, thresholds):
        tbl = ideal_table(trio, 1500.0)
        for rate in range(0, 1501, 7):
            greedy = greedy_combination(float(rate), trio, thresholds)
            assert tbl[rate] <= greedy.power(float(rate)) + 1e-9

    def test_resolution_too_coarse_rejected(self, trio):
        with pytest.raises(CombinationError):
            ideal_table(trio, 100.0, resolution=50.0)  # raspberry cap < grid


class TestTables:
    def test_greedy_table_matches_direct_calls(self, trio, thresholds):
        table = build_table(trio, thresholds, 200.0)
        for rate in (0.0, 1.0, 9.5, 33.0, 150.0, 200.0):
            assert table.combination_for(rate) == greedy_combination(
                float(np.ceil(rate)), trio, thresholds
            )

    def test_power_for_vectorised(self, trio, thresholds):
        table = build_table(trio, thresholds, 100.0)
        rates = np.array([0.0, 5.0, 50.0, 100.0])
        powers = table.power_for(rates)
        assert powers.shape == rates.shape
        for r, pw in zip(rates, powers):
            assert pw == pytest.approx(table.power_for(float(r)))

    def test_rates_round_up_to_grid(self, trio, thresholds):
        table = build_table(trio, thresholds, 100.0)
        assert table.combination_for(8.2) == table.combination_for(9.0)

    def test_rejects_rates_beyond_max(self, trio, thresholds):
        table = build_table(trio, thresholds, 100.0)
        with pytest.raises(CombinationError):
            table.power_for(101.0)

    def test_counts_array_shape(self, trio, thresholds):
        table = build_table(trio, thresholds, 50.0)
        assert table.counts_array.shape == (51, 3)
        assert table.counts_for(50.0).tolist() == [
            table.combination_for(50.0).count_of(p.name) for p in trio
        ]

    def test_ideal_table_combinations_are_optimal(self, trio, thresholds):
        table = build_table(trio, thresholds, 300.0, method="ideal")
        tbl = ideal_table(trio, 300.0)
        for rate in range(0, 301, 13):
            assert table.power_for(float(rate)) == pytest.approx(tbl[rate])

    def test_unknown_method_rejected(self, trio, thresholds):
        with pytest.raises(CombinationError):
            build_table(trio, thresholds, 10.0, method="magic")

    def test_len_and_max_rate(self, trio, thresholds):
        table = build_table(trio, thresholds, 100.0)
        assert len(table) == 101
        assert table.max_rate == 100.0

    RATES = (0.0, 1e-10, 1.0, 1.0 + 1e-10, 1.0 + 1e-8, 8.2, 50.0, 99.5, 100.0)

    @pytest.mark.parametrize("resolution", [1.0, 0.5, 2.5])
    def test_clipped_index_scalar_0d_and_1d_agree_with_index(
        self, trio, thresholds, resolution
    ):
        table = build_table(trio, thresholds, 100.0, resolution=resolution)
        rates = np.array(self.RATES)
        idx, oob = table.clipped_index(rates)
        assert idx.tolist() == table._index(rates).tolist()
        assert not oob.any()
        for k, rate in enumerate(self.RATES):
            for arg in (rate, np.array(rate)):
                got, flag = table.clipped_index(arg)
                assert np.ndim(got) == 0 and not flag
                assert got == table._index(arg) == idx[k]

    def test_clipped_index_flags_out_of_range_scalar(self, trio, thresholds):
        table = build_table(trio, thresholds, 100.0)
        for arg in (100.5, np.array(250.0)):
            idx, oob = table.clipped_index(arg)
            assert oob and idx == len(table) - 1
            with pytest.raises(CombinationError, match="beyond table max 100.0"):
                table._index(arg)

    @pytest.mark.parametrize("rate", [0.0, 0.4, 1.0, 9.5, 33.0, 529.0, 640.2])
    def test_combo_at_clipped_index_is_combination_for(self, trio, thresholds, rate):
        table = build_table(trio, thresholds, 700.0)
        assert table.combo_at(table.clipped_index(rate)[0]) is table.combination_for(
            rate
        )


class TestBoundedGreedy:
    def _infra(self):
        from repro.core.bml import design
        from repro.core.profiles import table_i_profiles

        return design(table_i_profiles())

    def test_unbounded_inventory_matches_plain_greedy(self, trio, thresholds):
        from repro.core.combination import greedy_combination_bounded

        inv = {"paravance": 10**6, "chromebook": 10**6, "raspberry": 10**6}
        for rate in (0.0, 5.0, 100.0, 529.0, 1400.0, 4000.0):
            assert greedy_combination_bounded(
                rate, trio, thresholds, inv
            ) == greedy_combination(rate, trio, thresholds)

    def test_caps_respected(self, trio, thresholds):
        from repro.core.combination import greedy_combination_bounded

        inv = {"paravance": 1, "chromebook": 3, "raspberry": 2}
        combo = greedy_combination_bounded(1440.0, trio, thresholds, inv)
        for name, cap in inv.items():
            assert combo.count_of(name) <= cap
        assert combo.capacity >= 1440.0

    def test_cascades_to_bigger_when_littles_exhausted(self, trio, thresholds):
        from repro.core.combination import greedy_combination_bounded

        # remainder of 5 would prefer one raspberry, but none exist
        inv = {"paravance": 2, "chromebook": 0, "raspberry": 0}
        combo = greedy_combination_bounded(1336.0, trio, thresholds, inv)
        assert combo.counts == {"paravance": 2}

    def test_infeasible_rate_raises(self, trio, thresholds):
        from repro.core.combination import CombinationError, greedy_combination_bounded

        inv = {"paravance": 1, "chromebook": 0, "raspberry": 0}
        with pytest.raises(CombinationError):
            greedy_combination_bounded(1500.0, trio, thresholds, inv)

    def test_zero_rate_empty(self, trio, thresholds):
        from repro.core.combination import greedy_combination_bounded

        assert (
            greedy_combination_bounded(0.0, trio, thresholds, {}).total_nodes == 0
        )

    def test_bounded_table(self, trio, thresholds):
        inv = {"paravance": 0, "chromebook": 5, "raspberry": 5}
        table = build_table(trio, thresholds, 150.0, inventory=inv)
        assert table.combination_for(150.0).count_of("paravance") == 0

    def test_ideal_method_rejects_inventory(self, trio, thresholds):
        with pytest.raises(CombinationError):
            build_table(trio, thresholds, 10.0, method="ideal", inventory={})
