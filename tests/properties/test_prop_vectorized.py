"""Equivalence properties for the vectorized combination engine.

The numpy kernels in :mod:`repro.core.combination` (run-length greedy
table construction, chunked cover DP, Gil-Werman sliding minimum,
mixed-radix row ids) promise *bit-identical* results to the pure-Python
references they replaced.  These properties pin that promise across random
architecture families, resolutions and inventories.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combination import (
    Combination,
    CombinationTable,
    _sliding_min_with_arg,
    _solve_dp,
    build_table,
    greedy_combination,
    greedy_combination_bounded,
)
from repro.core.profiles import ArchitectureProfile, table_i_profiles
from repro.core.scheduler import _row_ids
from table_references import (
    _greedy_combos_reference,
    _sliding_min_with_arg_reference,
    _solve_dp_reference,
)

#: The property suites pin the bit-identity contracts cheaply; they are
#: part of the `quick` iteration subset (benchmarks/run_quick.py).
pytestmark = pytest.mark.quick

TRIO = tuple(
    p for p in table_i_profiles() if p.name in ("paravance", "chromebook", "raspberry")
)
THRESHOLDS = {"paravance": 529.0, "chromebook": 10.0, "raspberry": 1.0}


@st.composite
def architecture_family(draw):
    """2-4 architectures with strictly improving perf and max power."""
    n = draw(st.integers(2, 4))
    perfs = sorted(
        draw(st.lists(st.integers(2, 800), min_size=n, max_size=n, unique=True)),
        reverse=True,
    )
    powers = sorted(
        draw(st.lists(st.integers(2, 1000), min_size=n, max_size=n, unique=True)),
        reverse=True,
    )
    profs = []
    for i, (pf, pw) in enumerate(zip(perfs, powers)):
        idle = draw(st.floats(0.0, float(pw)))
        profs.append(
            ArchitectureProfile(
                name=f"a{i}", max_perf=float(pf), idle_power=idle,
                max_power=float(pw),
            )
        )
    return profs


@st.composite
def thresholds_for(draw, profs):
    return {
        p.name: float(draw(st.integers(1, max(1, int(p.max_perf)))))
        for p in profs
    }


def _reference_table(ordered, thresholds, max_units, resolution, inventory=None):
    """Seed-style table: per-rate greedy + per-combo scalar power."""
    combos = _greedy_combos_reference(
        ordered, thresholds, max_units, resolution, inventory
    )
    index = {p.name: i for i, p in enumerate(ordered)}
    counts = np.zeros((len(combos), len(ordered)), dtype=np.int64)
    for i, combo in enumerate(combos):
        for name, cnt in combo.counts.items():
            counts[i, index[name]] = cnt
    power = np.array([c.power(i * resolution) for i, c in enumerate(combos)])
    floor = np.array(
        [c.power(max(i - 1, 0) * resolution) for i, c in enumerate(combos)]
    )
    return combos, counts, power, floor


class TestGreedyTableEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.data(), architecture_family(), st.sampled_from([0.5, 1.0, 2.0]))
    def test_vectorized_matches_per_rate_reference(self, data, profs, resolution):
        thresholds = data.draw(thresholds_for(profs))
        max_units = data.draw(st.integers(0, 400))
        table = build_table(
            profs, thresholds, max_units * resolution, resolution, "greedy"
        )
        combos, counts, power, floor = _reference_table(
            profs, thresholds, max_units, resolution
        )
        assert np.array_equal(table.counts_array, counts)
        assert np.array_equal(table.power_array, power)
        assert np.array_equal(table._power_floor, floor)
        assert all(a == b for a, b in zip(table._combos, combos))

    @settings(max_examples=30, deadline=None)
    @given(st.data(), architecture_family())
    def test_bounded_vectorized_matches_reference(self, data, profs):
        inventory = {
            p.name: data.draw(st.integers(0, 6)) for p in profs
        }
        capacity = sum(p.max_perf * inventory[p.name] for p in profs)
        max_units = data.draw(st.integers(0, max(int(capacity), 0)))
        thresholds = data.draw(thresholds_for(profs))
        try:
            table = build_table(
                profs, thresholds, float(max_units), 1.0, "greedy",
                inventory=inventory,
            )
        except Exception as exc:
            with pytest.raises(type(exc)):
                _reference_table(profs, thresholds, max_units, 1.0, inventory)
            return
        combos, counts, power, floor = _reference_table(
            profs, thresholds, max_units, 1.0, inventory
        )
        assert np.array_equal(table.counts_array, counts)
        assert np.array_equal(table.power_array, power)
        assert all(a == b for a, b in zip(table._combos, combos))

    def test_table_i_fig5_table_bit_identical(self):
        """The acceptance-criterion case: Table I trio at max_rate=5000."""
        table = build_table(TRIO, THRESHOLDS, 5000.0, 1.0, "greedy")
        combos, counts, power, floor = _reference_table(
            TRIO, THRESHOLDS, 5000, 1.0
        )
        assert np.array_equal(table.counts_array, counts)
        assert np.array_equal(table.power_array, power)
        assert np.array_equal(table._power_floor, floor)

    def test_run_length_materialization(self):
        """O(#distinct) objects: runs of identical rows share one object."""
        table = build_table(TRIO, THRESHOLDS, 2000.0, 1.0, "greedy")
        distinct_rows = len(np.unique(table.counts_array, axis=0))
        distinct_objects = len({id(c) for c in table._combos})
        assert distinct_objects == distinct_rows
        assert distinct_objects < len(table) / 4


class TestDPEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(architecture_family(), st.integers(0, 500), st.sampled_from([0.5, 1.0]))
    def test_numpy_dp_matches_reference(self, profs, max_units, resolution):
        fast = _solve_dp(profs, max_units, resolution)
        ref = _solve_dp_reference(profs, max_units, resolution)
        assert np.array_equal(fast.power, ref.power)
        assert np.array_equal(fast.cover_cost, ref.cover_cost)
        assert np.array_equal(fast.cover_choice, ref.cover_choice)
        assert np.array_equal(fast.partial_arch, ref.partial_arch)
        assert np.array_equal(fast.partial_from, ref.partial_from)

    @settings(max_examples=20, deadline=None)
    @given(architecture_family(), st.integers(1, 300))
    def test_ideal_table_matches_reference_backtracking(self, profs, max_units):
        from repro.core.combination import _grid_capacities

        table = build_table(profs, {}, float(max_units), 1.0, "ideal")
        dp = _solve_dp_reference(profs, max_units, 1.0)
        caps = _grid_capacities(profs, 1.0)
        for k in range(max_units + 1):
            counts = {}
            a, r = int(dp.partial_arch[k]), k
            if a >= 0:
                p = dp.profiles[a]
                counts[p] = counts.get(p, 0) + 1
                r = int(dp.partial_from[k])
            while r > 0:
                a = int(dp.cover_choice[r])
                assert a >= 0
                p = dp.profiles[a]
                counts[p] = counts.get(p, 0) + 1
                r -= caps[a]
            assert table._combos[k] == Combination.of(counts)

    def test_dp_matches_reference_table_i(self):
        fast = _solve_dp(TRIO, 4000, 1.0)
        ref = _solve_dp_reference(TRIO, 4000, 1.0)
        assert np.array_equal(fast.power, ref.power)
        assert np.array_equal(fast.partial_from, ref.partial_from)


class TestSlidingMinEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_deque_reference(self, data):
        n = data.draw(st.integers(1, 120))
        window = data.draw(st.integers(1, 130))
        # Small integer values force ties; infs model unreachable DP states.
        vals = np.array(
            data.draw(
                st.lists(
                    st.one_of(
                        st.integers(0, 5).map(float), st.just(float("inf"))
                    ),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        best_f, arg_f = _sliding_min_with_arg(vals, window)
        best_r, arg_r = _sliding_min_with_arg_reference(vals, window)
        assert np.array_equal(best_f, best_r)
        assert np.array_equal(arg_f, arg_r)


class TestRowIdsEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equality_pattern_matches_unique_reference(self, data):
        n = data.draw(st.integers(1, 60))
        width = data.draw(st.integers(1, 4))
        rows = data.draw(
            st.lists(
                st.lists(st.integers(0, 4), min_size=width, max_size=width),
                min_size=n,
                max_size=n,
            )
        )
        counts = np.array(rows, dtype=np.int64)
        ids = _row_ids(counts)
        _, reference = np.unique(counts, axis=0, return_inverse=True)
        reference = reference.reshape(-1)
        # ids are equal exactly when rows are equal...
        assert np.array_equal(
            ids[:, None] == ids[None, :], reference[:, None] == reference[None, :]
        )
        # ...so the scheduler sees identical change points.
        assert np.array_equal(
            np.flatnonzero(ids[1:] != ids[:-1]),
            np.flatnonzero(reference[1:] != reference[:-1]),
        )

    def test_change_points_on_real_table(self):
        table = build_table(TRIO, THRESHOLDS, 3000.0, 1.0, "greedy")
        rates = np.linspace(0.0, 3000.0, 7001)
        counts = table.counts_for(rates)
        ids = _row_ids(counts)
        _, reference = np.unique(counts, axis=0, return_inverse=True)
        reference = reference.reshape(-1)
        assert np.array_equal(
            np.flatnonzero(ids[1:] != ids[:-1]),
            np.flatnonzero(reference[1:] != reference[:-1]),
        )


class TestTableViews:
    def test_truncated_view_shares_arrays_and_matches_fresh_build(self):
        big = build_table(TRIO, THRESHOLDS, 4000.0, 1.0, "greedy")
        view = big.truncated(1500)
        fresh = build_table(TRIO, THRESHOLDS, 1500.0, 1.0, "greedy")
        assert view.max_rate == 1500.0
        assert len(view) == 1501
        assert np.array_equal(view.power_array, fresh.power_array)
        assert np.array_equal(view.counts_array, fresh.counts_array)
        assert np.shares_memory(view._power, big._power)  # zero-copy slice
        with pytest.raises(Exception):
            view.power_for(1501.0)

    def test_truncated_noop_when_covering(self):
        table = build_table(TRIO, THRESHOLDS, 100.0, 1.0, "greedy")
        assert table.truncated(100) is table
        assert table.truncated(500) is table
