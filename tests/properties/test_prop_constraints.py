"""Property-based tests for node-bounded combinations."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combination import Combination, CombinationError, ideal_table
from repro.core.constraints import (
    _solve_bounded,
    bounded_nodes_combination,
    bounded_nodes_table,
    constrained_table,
)
from repro.core.profiles import ArchitectureProfile, table_i_profiles
from repro.sim.application import ApplicationSpec
from table_references import (
    _constrained_counts_reference,
    _solve_bounded_reference,
)

#: The property suites pin the bit-identity contracts cheaply; they are
#: part of the `quick` iteration subset (benchmarks/run_quick.py).
pytestmark = pytest.mark.quick

TRIO = tuple(
    p for p in table_i_profiles() if p.name in ("paravance", "chromebook", "raspberry")
)


@st.composite
def small_family(draw):
    """2-3 architectures with small integer capacities for brute forcing."""
    n = draw(st.integers(2, 3))
    perfs = sorted(
        draw(st.lists(st.integers(2, 15), min_size=n, max_size=n, unique=True)),
        reverse=True,
    )
    profs = []
    for i, pf in enumerate(perfs):
        idle = draw(st.floats(0.0, 10.0))
        mx = idle + draw(st.floats(0.1, 20.0))
        profs.append(
            ArchitectureProfile(
                name=f"m{i}", max_perf=float(pf), idle_power=idle, max_power=mx
            )
        )
    return profs


@settings(max_examples=30, deadline=None)
@given(small_family(), st.integers(1, 4), st.integers(1, 40))
def test_bounded_matches_brute_force(profs, budget, rate):
    best = np.inf
    for counts in itertools.product(range(budget + 1), repeat=len(profs)):
        if not 0 < sum(counts) <= budget:
            continue
        combo = Combination.of(dict(zip(profs, counts)))
        if combo.capacity >= rate:
            best = min(best, combo.power(float(rate)))
    try:
        got = bounded_nodes_combination(float(rate), profs, budget)
    except CombinationError:
        assert best == np.inf
        return
    assert got.total_nodes <= budget
    assert got.capacity >= rate
    assert got.power(float(rate)) == pytest.approx(best)


@given(st.integers(1, 10), st.integers(1, 10))
def test_table_monotone_in_budget(b1, b2):
    tight, loose = sorted([b1, b2])
    t_tight = bounded_nodes_table(TRIO, 300.0, tight)
    t_loose = bounded_nodes_table(TRIO, 300.0, loose)
    assert np.all(t_loose <= t_tight + 1e-9)


@given(st.integers(5, 60))
def test_generous_budget_matches_unconstrained(budget):
    free = ideal_table(TRIO, 200.0)
    bounded = bounded_nodes_table(TRIO, 200.0, max(budget, 30))
    assert np.allclose(free, bounded)


class TestBoundedVectorizedEquivalence:
    """PR 2 contract: the argmin-reduced layer DP and the pointer-doubling
    table reconstruction are bit-identical to the reference formulations."""

    @settings(max_examples=25, deadline=None)
    @given(small_family(), st.integers(0, 120), st.integers(1, 6))
    def test_solve_bounded_matches_reference(self, profs, max_units, budget):
        fast = _solve_bounded(profs, max_units, 1.0, budget)
        ref = _solve_bounded_reference(profs, max_units, 1.0, budget)
        for got, want in zip(fast, ref):
            if isinstance(got, np.ndarray):
                assert np.array_equal(got, want)
            else:
                assert got == want

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_constrained_table_matches_per_rate_reference(self, data):
        profs = data.draw(small_family())
        budget = data.draw(st.one_of(st.none(), st.integers(1, 5)))
        min_inst = data.draw(st.integers(1, 3))
        if budget is not None and min_inst > budget:
            min_inst = budget
        spec = ApplicationSpec(min_instances=min_inst, max_instances=budget)
        cap = max(p.max_perf for p in profs) * (budget or 8)
        max_units = data.draw(st.integers(0, int(cap)))
        try:
            table = constrained_table(profs, spec, float(max_units), 1.0)
        except CombinationError:
            with pytest.raises(CombinationError):
                _constrained_counts_reference(profs, spec, max_units, 1.0)
            return
        combos = _constrained_counts_reference(profs, spec, max_units, 1.0)
        assert all(a == b for a, b in zip(table._combos, combos))
        ref_power = np.array(
            [c.power(float(k)) for k, c in enumerate(combos)]
        )
        assert np.array_equal(table.power_array, ref_power)

    def test_trio_constrained_table_bit_identical(self):
        spec = ApplicationSpec(min_instances=2, max_instances=6)
        table = constrained_table(TRIO, spec, 2000.0, 1.0)
        combos = _constrained_counts_reference(TRIO, spec, 2000, 1.0)
        assert all(a == b for a, b in zip(table._combos, combos))
        for combo in table._combos:
            # padding raises totals to min_instances (2), never past the
            # DP's max_instances budget (6)
            assert not combo or 2 <= combo.total_nodes <= 6
