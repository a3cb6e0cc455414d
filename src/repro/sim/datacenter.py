"""Fast data-center replay: integrate a :class:`SchedulePlan` over a trace.

The planner (scheduler or baseline policy) produces segments with constant
serving combination and constant overhead power; this module turns them
into per-second power and unserved-demand series with numpy kernels over
fixed, cache-sized blocks of the timeline, so the paper's 87-day World Cup
scenario (7.5 M samples) integrates in a fraction of a second and no
temporary is longer than a block.

The event-driven machine-level simulator in :mod:`repro.sim.machine` /
:mod:`repro.sim.cluster` computes the same quantities from first
principles; the test suite cross-checks both paths on shorter traces with
``np.allclose``: they reach each power through different float operations,
so they agree to rounding, not bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.combination import _BLOCK, CombinationTable
from ..core.reconfiguration import SchedulePlan
from ..workload.trace import LoadTrace
from .energy import power_breakpoints
from .results import SimulationResult

__all__ = ["execute_plan", "lower_bound_result"]


def execute_plan(
    plan: SchedulePlan,
    trace: LoadTrace,
    scenario: str = "plan",
) -> SimulationResult:
    """Replay ``plan`` against ``trace`` and account energy and QoS.

    The plan horizon must match the trace length (both count seconds when
    the trace is sampled at 1 Hz; generally, plan times are in samples).
    """
    n = len(trace)
    if plan.horizon != n:
        raise ValueError(f"plan horizon {plan.horizon} != trace length {n}")
    power = np.empty(n)
    unserved = np.zeros(n)
    # Segments are grouped by serving combination (heavy reconfiguration
    # churn revisits the same few combinations thousands of times), and the
    # timeline is integrated in _BLOCK-sample blocks.  In a block, ``perm``
    # lists each group's block-local samples contiguously (segments stably
    # sorted by group); each group's power curve is one np.interp over its
    # gathered loads, scattered back.  A block one segment covers is sliced.
    # Each sample gets the same elementwise float ops as in one unblocked
    # pass, so the series are bit-identical whatever the block size.
    # The plan's serving column indexes its distinct combination objects;
    # a group gathers the equal ones that serve.
    segs = plan.segments
    starts = segs.t_start
    overheads = segs.overhead_power
    present, inverse = np.unique(segs.serving, return_inverse=True)
    groups: dict = {}
    group_of = [
        groups.setdefault(segs.combos[k], len(groups)) for k in present.tolist()
    ]
    gid = np.asarray(group_of, np.int64)[inverse]
    curves = [(combo.capacity, *power_breakpoints(combo)) for combo in groups]
    b0s = np.arange(0, n, _BLOCK)
    k0s = np.searchsorted(starts, b0s, "right") - 1
    k1s = np.searchsorted(starts, b0s + _BLOCK)
    for b0, k0, k1 in zip(b0s.tolist(), k0s.tolist(), k1s.tolist()):
        m = min(_BLOCK, n - b0)
        loads, pv, uv = (a[b0 : b0 + m] for a in (trace.values, power, unserved))
        if k1 - k0 == 1:
            _integrate(curves[gid[k0]], loads, overheads[k0], pv, uv, slice(None))
            continue
        first = np.concatenate(([0], starts[k0 + 1 : k1] - b0))
        order = np.argsort(gid[k0:k1], kind="stable")
        lens = np.diff(first, append=m)[order]
        ends = np.cumsum(lens)
        perm = np.repeat(first[order] - ends + lens, lens) + np.arange(m)
        block_overheads = np.repeat(overheads[k0:k1][order], lens)
        g = gid[k0:k1][order]
        cut = np.flatnonzero(g[1:] != g[:-1])
        bounds = [0, *ends[cut].tolist(), m]
        for k, s0, s1 in zip(g[np.r_[0, cut + 1]].tolist(), bounds, bounds[1:]):
            pos = perm[s0:s1]
            _integrate(curves[k], loads[pos], block_overheads[s0:s1], pv, uv, pos)
    return SimulationResult(
        scenario=scenario,
        trace_name=trace.name,
        timestep=trace.timestep,
        power=power,
        unserved=unserved,
        reconfigurations=plan.reconfigurations,
        meta={
            "segments": len(segs),
            "switch_energy_j": plan.total_switch_energy,
            "max_nodes": max(combo.total_nodes for combo in groups),
        },
    )


def _integrate(curve, loads, overhead, power, unserved, pos) -> None:
    """Store one combination's power (and deficits) for ``loads`` at ``pos``."""
    capacity, caps, powers = curve
    served = np.minimum(loads, capacity)
    power[pos] = np.interp(served, caps, powers) + overhead
    # Only materialise deficits: well-provisioned groups leave the zeros
    # array untouched (keeping its pages copy-on-write keeps later QoS
    # scans cheap).
    if loads.max() > capacity:
        unserved[pos] = loads - served


def lower_bound_result(
    trace: LoadTrace,
    table: CombinationTable,
    scenario: str = "LowerBound Theoretical",
) -> SimulationResult:
    """The paper's unreachable lower bound.

    The infrastructure is re-dimensioned **every second** with the ideal
    BML combination for the instantaneous load, with **no switching latency
    or energy** — "picturing the best energy proportionality we could
    reach".  The combination is sized on the table's grid (1 req/s by
    default, like the scheduler) but its power is charged at the actual
    instantaneous load, so the bound is a true floor for any executed plan.
    """
    power = np.asarray(table.power_at_load(trace.values), dtype=float)
    return SimulationResult(
        scenario=scenario,
        trace_name=trace.name,
        timestep=trace.timestep,
        power=power,
        unserved=np.zeros(len(trace)),
        meta={"table_method": table.method},
    )
