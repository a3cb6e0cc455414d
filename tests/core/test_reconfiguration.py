"""Unit tests for reconfiguration planning and plan assembly."""

import pickle

import numpy as np
import pytest

from repro.core.combination import Combination
from repro.core.profiles import TABLE_I
from repro.core.reconfiguration import (
    PlanSegments,
    Reconfiguration,
    ReconfigurationLog,
    SchedulePlan,
    Segment,
    build_plan,
    plan_reconfiguration,
    transition,
)
from repro.sim.results import SimulationResult

P = TABLE_I["paravance"]
C = TABLE_I["chromebook"]
R = TABLE_I["raspberry"]


def combo(**counts):
    profs = {"p": P, "c": C, "r": R}
    return Combination.of({profs[k]: v for k, v in counts.items()})


class TestSegment:
    def test_rejects_empty_span(self):
        with pytest.raises(ValueError):
            Segment(5, 5, combo(r=1))

    def test_rejects_negative_overhead(self):
        with pytest.raises(ValueError):
            Segment(0, 5, combo(r=1), overhead_power=-1.0)

    def test_duration(self):
        assert Segment(3, 10, combo(r=1)).duration == 7


#: One record of each kind, by its fields in declaration order.
RECORDS = [
    (Segment, dict(t_start=3, t_end=10, serving=combo(r=1), overhead_power=2.5)),
    (
        Reconfiguration,
        dict(
            decided_at=100, completes_at=310, before=combo(c=5),
            after=combo(p=1), boot_duration=189, off_duration=21,
            on_energy=P.on_energy, off_energy=5 * C.off_energy,
        ),
    ),
]


@pytest.mark.parametrize("cls, fields", RECORDS)
class TestRecordSemantics:
    """Segments and events are tuples, with the dataclasses' semantics."""

    def test_equal_fields_compare_and_hash_equal(self, cls, fields):
        a, b = cls(**fields), cls(*fields.values())
        assert a == b and hash(a) == hash(b)
        first = next(iter(fields))
        assert a != cls(**{**fields, first: fields[first] - 1})

    def test_attributes_are_read_only(self, cls, fields):
        rec = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert rec == cls(**fields)

    def test_pickle_round_trip(self, cls, fields):
        rec = cls(**fields)
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and type(back) is cls

    def test_derived_values(self, cls, fields):
        rec = cls(**fields)
        start, end = list(fields.values())[:2]
        assert rec.duration == end - start
        if cls is Reconfiguration:
            assert rec.switch_energy == P.on_energy + 5 * C.off_energy


def window(current, target):
    tr = transition(current, target)
    return tr.boot_duration, tr.off_duration


class TestReconfigurationWindow:
    def test_scale_up_uses_boot_time(self):
        boot, off = window(combo(r=1), combo(r=1, p=1))
        assert boot == 189 and off == 0

    def test_scale_down_uses_off_time(self):
        boot, off = window(combo(r=1, p=1), combo(r=1))
        assert boot == 0 and off == 10

    def test_swap_uses_both(self):
        boot, off = window(combo(c=5), combo(p=1))
        assert boot == 189 and off == 21

    def test_max_over_started_architectures(self):
        boot, _ = window(combo(), combo(c=1, r=1))
        assert boot == 16  # raspberry (16 s) boots slower than chromebook (12 s)

    def test_deltas_and_energies_in_diff_order(self):
        tr = transition(combo(c=5, r=1), combo(p=1, r=3))
        assert tr.starts == (("paravance", 1), ("raspberry", 2))
        assert tr.stops == (("chromebook", 5),)
        assert tr.on_energy == P.on_energy + 2 * R.on_energy
        assert tr.off_energy == 5 * C.off_energy

    def test_nothing_started_keeps_int_zero_energy(self):
        tr = transition(combo(c=2), combo(c=1))
        assert tr.starts == () and tr.on_energy == 0
        assert type(tr.on_energy) is int  # journal payloads encode it so


class TestPlanReconfiguration:
    def test_boot_energy_is_exact(self):
        segs, event = plan_reconfiguration(0, combo(r=1), combo(r=1, p=1), 10_000)
        assert event.on_energy == pytest.approx(P.on_energy)
        assert event.off_energy == 0.0
        # integral of overhead over the boot window equals OnE
        boot_overhead = sum(
            s.overhead_power * s.duration for s in segs if s.t_start < 189
        )
        assert boot_overhead == pytest.approx(P.on_energy)

    def test_shutdown_energy_is_exact(self):
        segs, event = plan_reconfiguration(0, combo(p=1, r=1), combo(p=1), 10_000)
        assert event.off_energy == pytest.approx(R.off_energy)
        total_overhead = sum(s.overhead_power * s.duration for s in segs)
        assert total_overhead == pytest.approx(R.off_energy)

    def test_serving_switches_at_handover(self):
        segs, event = plan_reconfiguration(0, combo(c=5), combo(p=1), 10_000)
        assert event.boot_duration == 189
        for s in segs:
            if s.t_end <= 189:
                assert s.serving == combo(c=5)
            else:
                assert s.serving == combo(p=1)

    def test_early_booted_machines_idle_until_handover(self):
        # chromebook (12 s) and paravance (189 s) boot together: from t=12
        # to t=189 the chromebook idles, which must appear as overhead.
        segs, _ = plan_reconfiguration(0, combo(), combo(p=1, c=1), 10_000)
        mid = [s for s in segs if s.t_start >= 12 and s.t_end <= 189]
        assert mid, "expected a waiting segment"
        for s in mid:
            assert s.overhead_power == pytest.approx(
                P.on_energy / 189 + C.idle_power
            )

    def test_clipped_at_horizon(self):
        segs, event = plan_reconfiguration(0, combo(r=1), combo(r=1, p=1), 100)
        assert segs[-1].t_end == 100
        assert event.completes_at == 189  # event records physical completion

    def test_rejects_no_change(self):
        with pytest.raises(ValueError):
            plan_reconfiguration(0, combo(r=1), combo(r=1), 100)

    def test_switch_energy_property(self):
        _, event = plan_reconfiguration(0, combo(c=5), combo(p=1), 10_000)
        assert event.switch_energy == pytest.approx(P.on_energy + 5 * C.off_energy)


class TestBuildPlan:
    def test_no_decisions_single_segment(self):
        plan = build_plan(100, combo(r=1), [])
        assert len(plan.segments) == 1
        assert plan.segments[0].serving == combo(r=1)
        assert plan.final == combo(r=1)

    def test_segments_contiguous_and_cover_horizon(self):
        plan = build_plan(
            5000,
            combo(r=1),
            [(100, combo(c=1)), (1000, combo(p=1)), (3000, combo(r=2))],
        )
        t = 0
        for seg in plan.segments:
            assert seg.t_start == t
            t = seg.t_end
        assert t == 5000
        assert plan.n_reconfigurations == 3

    def test_identical_target_skipped(self):
        plan = build_plan(100, combo(r=1), [(10, combo(r=1))])
        assert plan.n_reconfigurations == 0

    def test_overlapping_decision_rejected(self):
        with pytest.raises(ValueError):
            build_plan(
                10_000,
                combo(r=1),
                [(0, combo(p=1)), (50, combo(r=1))],  # inside the 189 s boot
            )

    def test_overlapping_decision_trimmed_when_allowed(self):
        plan = build_plan(
            10_000,
            combo(r=1),
            [(0, combo(p=1)), (50, combo(r=1))],
            allow_overlap_trim=True,
        )
        assert plan.n_reconfigurations == 1
        assert plan.final == combo(p=1)

    def test_decision_beyond_horizon_ignored(self):
        plan = build_plan(100, combo(r=1), [(150, combo(p=1))])
        assert plan.n_reconfigurations == 0

    def test_total_switch_energy(self):
        plan = build_plan(
            10_000, combo(r=1), [(0, combo(r=1, p=1)), (1000, combo(r=1))]
        )
        assert plan.total_switch_energy == pytest.approx(
            P.on_energy + P.off_energy
        )

    def test_plan_validation_rejects_gaps(self):
        with pytest.raises(ValueError):
            SchedulePlan(
                horizon=10,
                initial=combo(r=1),
                segments=[Segment(0, 4, combo(r=1)), Segment(5, 10, combo(r=1))],
            )

    def test_plan_validation_rejects_short_coverage(self):
        with pytest.raises(ValueError):
            SchedulePlan(
                horizon=10,
                initial=combo(r=1),
                segments=[Segment(0, 9, combo(r=1))],
            )


class TestSwitchEnergyOrder:
    """Totals add left to right, as ``sum`` over the rows did."""

    #: Sixteen events: one 1 J switch, then fifteen of 2**-53 J.  Added
    #: left to right each tiny term rounds away; NumPy's pairwise sum
    #: pairs them up first and lands one ulp or more above 1.0.
    ENERGIES = [1.0] + [2.0**-53] * 15

    def _log(self):
        a, b = combo(r=1), combo(r=2)
        return ReconfigurationLog.of(
            (100 * i, 100 * i + 16, a, b, 16, 0, e, 0.0)
            for i, e in enumerate(self.ENERGIES)
        )

    def test_values_tell_the_orders_apart(self):
        assert float(np.sum(self.ENERGIES)) != sum(self.ENERGIES)

    def test_log_total_is_left_to_right(self):
        log = self._log()
        assert log.total_switch_energy == sum(r.switch_energy for r in log)
        assert log.total_switch_energy == 1.0

    def test_plan_and_result_totals_are_left_to_right(self):
        log = self._log()
        plan = SchedulePlan(
            horizon=10, initial=combo(r=1),
            segments=[Segment(0, 10, combo(r=1))], reconfigurations=log,
        )
        assert plan.total_switch_energy == 1.0
        result = SimulationResult(
            scenario="s", trace_name="t", timestep=1.0, power=np.zeros(3),
            unserved=np.zeros(3), reconfigurations=log,
        )
        assert result.switch_energy == 1.0

    def test_empty_totals_are_zero(self):
        assert ReconfigurationLog.of().total_switch_energy == 0.0
        assert build_plan(10, combo(r=1), []).total_switch_energy == 0.0


class TestRowViews:
    """Columns read as lists of rows."""

    def _plan(self):
        return build_plan(
            5000,
            combo(r=1),
            [(100, combo(c=1)), (1000, combo(p=1)), (3000, combo(r=2))],
        )

    def test_index_slice_and_iteration(self):
        plan = self._plan()
        rows = list(plan.segments)
        assert len(plan.segments) == len(rows) == 10
        assert plan.segments[0] == rows[0] and plan.segments[-1] == rows[-1]
        assert plan.segments[2:5] == rows[2:5]
        assert plan.segments[::3] == rows[::3]
        with pytest.raises(IndexError):
            plan.segments[10]
        events = list(plan.reconfigurations)
        assert [e.decided_at for e in events] == [100, 1000, 3000]
        assert plan.reconfigurations[-1] == events[-1]
        assert rows[-1] in plan.segments

    def test_rows_round_trip_through_columns(self):
        plan = self._plan()
        again = SchedulePlan(
            plan.horizon, plan.initial, list(plan.segments),
            ReconfigurationLog.of(list(plan.reconfigurations)),
        )
        assert isinstance(again.segments, PlanSegments)
        assert again == plan
        assert again.segments.combos == plan.segments.combos

    def test_columns_match_the_rows(self):
        plan = self._plan()
        segs = plan.segments
        assert segs.t_start.tolist() == [s.t_start for s in segs]
        assert segs.t_end.tolist() == [s.t_end for s in segs]
        log = plan.reconfigurations
        assert log.duration.tolist() == [r.duration for r in log]
        assert log.switch_energy.tolist() == [r.switch_energy for r in log]

    def test_views_are_not_hashable(self):
        with pytest.raises(TypeError):
            hash(self._plan().segments)
