"""Bit-identity of block-wise plan integration against one-pass references.

``execute_plan`` and ``CombinationTable.power_at_load`` evaluate the
timeline in ``_BLOCK``-sample blocks.  The unblocked implementations they
replaced are kept here verbatim as references: one ``np.repeat`` timeline
index per combination group with a gather and a fancy scatter, and the
whole-array lower-bound formula.  Every output element must carry the same
bits, whatever the plan shape and wherever the block edges fall, so
``_BLOCK`` is shrunk to put many block edges inside small plans.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.core.combination as combination
import repro.sim.datacenter as datacenter
from repro.core.combination import Combination, CombinationError, build_table
from repro.core.profiles import TABLE_I
from repro.core.reconfiguration import SchedulePlan, Segment
from repro.sim.datacenter import execute_plan
from repro.sim.energy import combination_power
from repro.workload.trace import LoadTrace

#: The property suites pin the bit-identity contracts cheaply; they are
#: part of the `quick` iteration subset (benchmarks/run_quick.py).
pytestmark = pytest.mark.quick

P, C, R = (TABLE_I[n] for n in ("paravance", "chromebook", "raspberry"))
THRESHOLDS = {"paravance": 529.0, "chromebook": 10.0, "raspberry": 1.0}

#: Serving combinations a drawn segment picks from: the empty one, an
#: under-provisioned one (one raspberry serves 9 req/s, so most loads
#: leave unserved demand), ordinary ones, and two equal but distinct
#: objects, which must land in one group.
POOL = (
    Combination.empty(),
    Combination.of({R: 1}),
    Combination.of({C: 2, R: 1}),
    Combination.of({P: 1}),
    Combination.of({P: 1, C: 1}),
    Combination.of({C: 1, P: 1}),
)


def _execute_plan_reference(plan, trace):
    """The one-pass executor: per combination group, one ``np.repeat``
    timeline index, a gather of the loads and a fancy scatter."""
    n = len(trace)
    power = np.empty(n)
    unserved = np.zeros(n)
    groups: dict = {}
    for seg in plan.segments:
        groups.setdefault(seg.serving, []).append(seg)
    for combo, segs in groups.items():
        starts = np.fromiter((s.t_start for s in segs), np.int64, len(segs))
        sizes = np.fromiter((s.t_end for s in segs), np.int64, len(segs)) - starts
        total = int(sizes.sum())
        if total == 0:
            continue
        offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        idx = np.repeat(starts - offsets, sizes) + np.arange(total)
        loads = trace.values[idx]
        served = np.minimum(loads, combo.capacity)
        powers = combination_power(combo, served)
        overheads = np.fromiter(
            (s.overhead_power for s in segs), np.float64, len(segs)
        )
        power[idx] = powers + np.repeat(overheads, sizes)
        deficit = loads - served
        if np.any(deficit > 0):
            unserved[idx] = deficit
    meta = {
        "segments": len(plan.segments),
        "switch_energy_j": plan.total_switch_energy,
        "max_nodes": max(
            (seg.serving.total_nodes for seg in plan.segments), default=0
        ),
    }
    return power, unserved, meta


def _power_at_load_reference(table, load):
    """The one-pass lower-bound formula over the whole input."""
    arr = np.asarray(load, dtype=float)
    idx = np.ceil(arr / table.resolution - combination._TOL)
    idx = np.clip(idx, 0, None).astype(np.int64)
    if np.any(idx >= len(table)):
        raise CombinationError(
            f"rate {np.max(np.asarray(arr))} beyond table max {table.max_rate}"
        )
    hi = table._power[idx]
    lo = table._power_floor[idx]
    cell_start = np.maximum(idx - 1, 0) * table.resolution
    frac = np.where(idx > 0, (arr - cell_start) / table.resolution, 0.0)
    out = lo + (hi - lo) * np.clip(frac, 0.0, 1.0)
    return float(out) if np.ndim(load) == 0 else out


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@st.composite
def plans(draw, block):
    """A plan over a drawn trace, with segment edges at arbitrary samples
    and exactly on multiples of ``block``."""
    n = draw(st.integers(1, 6 * block))
    on_edges = draw(st.lists(st.integers(1, 6), max_size=4))
    anywhere = draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=12))
    cuts = sorted({c for c in anywhere + [k * block for k in on_edges] if c < n})
    bounds = [0, *cuts, n]
    segments = [
        Segment(
            t0,
            t1,
            draw(st.sampled_from(POOL)),
            draw(st.sampled_from([0.0, 0.0, 1.5, 47.25, 1e-3])),
        )
        for t0, t1 in zip(bounds, bounds[1:])
    ]
    loads = draw(
        arrays(
            np.float64,
            n,
            elements=st.one_of(
                st.floats(0.0, 3000.0),
                st.sampled_from([0.0, 9.0, 10.0, 1331.0]),
            ),
        )
    )
    return SchedulePlan(n, segments[0].serving, segments), LoadTrace(loads)


def _assert_same_as_reference(plan, trace):
    got = execute_plan(plan, trace)
    power, unserved, meta = _execute_plan_reference(plan, trace)
    assert np.array_equal(_bits(got.power), _bits(power))
    assert np.array_equal(_bits(got.unserved), _bits(unserved))
    assert got.meta == meta


@pytest.mark.parametrize("block", [7, 64])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_execute_plan_matches_reference(block, data):
    """Any plan shape, any block edges: the same bits as one pass."""
    plan, trace = data.draw(plans(block))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datacenter, "_BLOCK", block)
        _assert_same_as_reference(plan, trace)


def test_execute_plan_matches_reference_at_real_block_size():
    """Segments spanning, ending on and crossing real block edges."""
    block = datacenter._BLOCK
    rng = np.random.default_rng(13)
    n = 3 * block + 4321
    cuts = set(rng.integers(1, n, 400).tolist())
    cuts -= set(range(block - 100, 2 * block + 101))
    cuts |= {block - 100, 2 * block + 100}  # one segment covers a block
    cuts |= {3 * block - 1, 3 * block, 3 * block + 1}
    bounds = [0, *sorted(cuts), n]
    segments = [
        Segment(t0, t1, POOL[rng.integers(len(POOL))], float(rng.choice([0.0, 3.5])))
        for t0, t1 in zip(bounds, bounds[1:])
    ]
    trace = LoadTrace(rng.uniform(0.0, 2500.0, n))
    _assert_same_as_reference(SchedulePlan(n, segments[0].serving, segments), trace)


@pytest.fixture(scope="module", params=[1.0, 0.5, 2.5])
def table(request):
    res = request.param
    return build_table((P, C, R), THRESHOLDS, 200.0 * res, resolution=res)


def _edge_loads(table):
    """Zero, every grid point, and the floats just either side of each."""
    grid = np.arange(len(table)) * table.resolution
    near = [np.nextafter(grid, -np.inf), grid, np.nextafter(grid, np.inf)]
    loads = np.concatenate([*near, grid * (1 + 1e-10), grid * (1 - 1e-10)])
    return loads[(loads >= 0) & (loads <= table.max_rate)]


@pytest.mark.parametrize("block", [7, 64, combination._BLOCK])
def test_power_at_load_matches_reference_on_grid_edges(table, block):
    loads = _edge_loads(table)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(combination, "_BLOCK", block)
        got = table.power_at_load(loads)
        assert np.array_equal(_bits(got), _bits(_power_at_load_reference(table, loads)))
        for x in loads[:: max(len(loads) // 97, 1)].tolist():
            value = table.power_at_load(x)
            assert isinstance(value, float)
            assert _bits(value) == _bits(_power_at_load_reference(table, x))
            assert _bits(table.power_at_load(np.array(x))) == _bits(value)


@settings(max_examples=60, deadline=None)
@given(
    loads=arrays(
        np.float64, st.integers(0, 300), elements=st.floats(0.0, 200.0)
    ),
    block=st.sampled_from([7, 64]),
)
def test_power_at_load_matches_reference(table, loads, block):
    loads = loads * table.resolution
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(combination, "_BLOCK", block)
        got = table.power_at_load(loads)
    assert got.shape == loads.shape
    assert np.array_equal(_bits(got), _bits(_power_at_load_reference(table, loads)))


@pytest.mark.parametrize("block", [7, combination._BLOCK])
def test_power_at_load_out_of_table_raises_the_reference_error(table, block):
    beyond = table.max_rate + table.resolution
    loads = np.full(40, 0.5 * table.max_rate)
    loads[25] = beyond
    loads[33] = beyond + 1.0  # the message names the whole input's maximum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(combination, "_BLOCK", block)
        for load in (loads, beyond):
            with pytest.raises(CombinationError) as want:
                _power_at_load_reference(table, load)
            with pytest.raises(CombinationError, match="beyond table max") as got:
                table.power_at_load(load)
            assert str(got.value) == str(want.value)
