"""Equivalence properties for the two-phase replay engine.

The contract, mirroring ``test_prop_vectorized.py``'s for the
combination kernels: the two-phase engine of
:class:`repro.sim.loop.EventDrivenReplay` (decision walk, control pass,
grouped serving-set kernels, journaled array ledger) must be
**bit-identical** to the per-second FSM reference — power series,
unserved series, per-machine meter totals, whole reconfiguration records
and machine-level counters — including under nonzero instance start/stop
times and both balancing strategies.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bml import design
from repro.core.prediction import LookAheadMaxPredictor
from repro.core.profiles import table_i_profiles
from repro.core.scheduler import BMLScheduler
from repro.sim.application import ApplicationSpec
from repro.sim.energy import EnergyMeter
from repro.sim.loadbalancer import LoadBalancer
from repro.sim.loop import EventDrivenReplay
from repro.sim.powercap import capped_profile
from repro.workload.trace import LoadTrace

#: The property suites pin the bit-identity contracts cheaply; they are
#: part of the `quick` iteration subset (benchmarks/run_quick.py).
pytestmark = pytest.mark.quick


@st.composite
def stepped_trace(draw):
    """Piecewise-constant load with jumps that force reconfigurations."""
    n_steps = draw(st.integers(2, 6))
    levels = draw(
        st.lists(
            st.floats(0.0, 2800.0, allow_nan=False, allow_infinity=False),
            min_size=n_steps,
            max_size=n_steps,
        )
    )
    durations = draw(
        st.lists(st.integers(30, 400), min_size=n_steps, max_size=n_steps)
    )
    noise_seed = draw(st.integers(0, 2**16))
    values = np.concatenate(
        [np.full(d, lv) for lv, d in zip(levels, durations)]
    )
    rng = np.random.default_rng(noise_seed)
    jitter = rng.uniform(0.0, 20.0, size=len(values))
    return LoadTrace(np.maximum(values + jitter, 0.0))


#: Every replay implementation; index 0 is the executable specification.
ALL_ENGINES = ("reference", "twophase")


def _run_pair(infra, trace, window, spec, strategy):
    table = infra.table(3000.0)
    results = []
    replays = []
    for engine in ALL_ENGINES:
        replay = EventDrivenReplay(
            table,
            trace,
            predictor=LookAheadMaxPredictor(window),
            app_spec=spec,
            balancer=LoadBalancer(strategy),
        )
        results.append(replay.run(engine=engine))
        replays.append(replay)
    return results, replays


def _object_state(replay):
    """The machines and hosted instances a replay leaves behind."""
    machines = [
        (m.machine_id, m.state, m.load, m.boots, m.shutdowns,
         m.transition_ends)
        for m in replay.cluster.machines()
    ]
    instances = sorted(
        (i.machine.machine_id, i.instance_id, i.started_at, i.ready_at)
        for i in replay.app.instances
    )
    return machines, instances


def _assert_identical(ref, other, ref_replay, other_replay):
    """The full cross-engine bit-identity contract, one engine pair."""
    assert np.array_equal(ref.power, other.power)
    assert np.array_equal(ref.unserved, other.unserved)
    assert ref.meta["meter_energy_j"] == other.meta["meter_energy_j"]
    # per-machine ledgers, not just the total
    assert ref_replay.meter._totals == other_replay.meter._totals
    assert ref_replay.stats == other_replay.stats
    # whole records: every field, boot/off durations included
    assert ref.reconfigurations == other.reconfigurations
    # the object state left behind: templated episodes set it directly
    assert _object_state(ref_replay) == _object_state(other_replay)


class TestEngineEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        stepped_trace(),
        st.integers(10, 400),
        st.sampled_from([(0.0, 0.0), (0.5, 0.5), (3.0, 2.5), (0.0, 7.0)]),
        st.sampled_from(["efficient", "proportional"]),
    )
    def test_bit_identical_to_reference(self, infra, trace, window, times, strategy):
        """Nonzero instance start/stop times included via ``times``."""
        stop, start = times
        spec = ApplicationSpec(stop_time=stop, start_time=start)
        results, replays = _run_pair(infra, trace, window, spec, strategy)
        ref, ref_replay = results[0], replays[0]
        for other, other_replay in zip(results[1:], replays[1:]):
            _assert_identical(ref, other, ref_replay, other_replay)

    def test_twophase_engine_is_default(self, infra, short_trace):
        replay = EventDrivenReplay(
            infra.table(3000.0),
            short_trace,
            predictor=LookAheadMaxPredictor(378),
        )
        result = replay.run()
        assert result.engine == "twophase"
        assert result.n_segments is not None
        # far fewer segments than seconds is the whole point
        assert result.n_segments < len(short_trace) / 20
        # batching groups the segments by frozen serving set
        assert result.meta["batches"] <= result.meta["serving_sets"]
        assert result.meta["serving_sets"] <= result.n_segments

    def test_meter_ledger_matches_power_integral(self, infra, short_trace):
        replay = EventDrivenReplay(
            infra.table(3000.0),
            short_trace,
            predictor=LookAheadMaxPredictor(378),
        )
        result = replay.run(engine="twophase")
        assert result.meta["meter_energy_j"] == pytest.approx(
            result.total_energy, rel=1e-9
        )

    def test_cross_replay_kernel_reuse_stays_bit_identical(
        self, infra, short_trace
    ):
        """Two replays of one table and trace in one process, each with
        the serving-set kernels it builds for itself, reproduce each
        other and the reference exactly."""

        def run(engine):
            return EventDrivenReplay(
                infra.table(3000.0),
                short_trace,
                predictor=LookAheadMaxPredictor(378),
            ).run(engine=engine)

        first = run("twophase")
        second = run("twophase")
        reference = run("reference")
        assert np.array_equal(first.power, second.power)
        assert np.array_equal(second.power, reference.power)
        assert np.array_equal(second.unserved, reference.unserved)
        assert second.meta["meter_energy_j"] == reference.meta["meter_energy_j"]


@lru_cache(maxsize=None)
def _capped_infra(frac: float):
    """BML infrastructure designed from power-capped Table I profiles.

    Same cap formula as ``ScenarioSpec.build_profiles``: the cap sits at
    ``idle + frac * (max - idle)`` of each machine's dynamic range.
    """
    profiles = [
        capped_profile(
            p, p.idle_power + frac * (p.max_power - p.idle_power)
        )
        for p in table_i_profiles()
    ]
    return design(profiles)


class TestTwoPhaseScenarios:
    """PR 6: the two-phase engine under the harder scenario shapes.

    The base equivalence property covers nonzero instance start/stop
    times; these pin the remaining ISSUE 6 scenario axes — power-capped
    profiles and bounded machine inventories — plus the control pass's
    purity (descriptor emission must not depend on evaluation running).
    """

    @settings(max_examples=10, deadline=None)
    @given(
        stepped_trace(),
        st.sampled_from([0.5, 0.7, 0.9]),
        st.sampled_from(["efficient", "proportional"]),
    )
    def test_powercap_bit_identical(self, trace, frac, strategy):
        infra = _capped_infra(frac)
        results, replays = _run_pair(
            infra, trace, 200,
            ApplicationSpec(stop_time=0.0, start_time=0.0), strategy,
        )
        ref, ref_replay = results[0], replays[0]
        for other, other_replay in zip(results[1:], replays[1:]):
            _assert_identical(ref, other, ref_replay, other_replay)

    @settings(max_examples=10, deadline=None)
    @given(
        stepped_trace(),
        st.sampled_from(
            [
                {"paravance": 1, "chromebook": 8, "raspberry": 8},
                {"paravance": 0, "chromebook": 12, "raspberry": 20},
            ]
        ),
    )
    def test_constrained_nodes_bit_identical(self, infra, trace, inventory):
        """Bounded inventory: clamped plans and unserved demand replay
        identically on both engines (runner's exact construction)."""
        results = []
        replays = []
        for engine in ALL_ENGINES:
            predictor = LookAheadMaxPredictor(200)
            outcome = BMLScheduler(
                infra, predictor=predictor, inventory=inventory
            ).plan_detailed(trace)
            replay = EventDrivenReplay(
                outcome.table, trace,
                predictor=predictor, inventory=inventory,
            )
            results.append(replay.run(engine=engine))
            replays.append(replay)
        ref, ref_replay = results[0], replays[0]
        for other, other_replay in zip(results[1:], replays[1:]):
            _assert_identical(ref, other, ref_replay, other_replay)

    def test_control_pass_descriptors_independent_of_evaluation(
        self, infra, short_trace
    ):
        """Control-pass purity: the descriptor stream is byte-for-byte
        the same whether or not the evaluate pass (and meter settling)
        runs afterwards — the phase split's core regression guard."""
        def build():
            return EventDrivenReplay(
                infra.table(3000.0),
                short_trace,
                predictor=LookAheadMaxPredictor(378),
            )

        full = build()
        full.run(engine="twophase")
        evaluated = full._twophase_plan
        control_only = build()
        bare = control_only._control_pass()
        assert bare.descs == evaluated.descs
        assert bare.plans == evaluated.plans
        # the rate-index decision (the short WC98-shaped trace has none)
        assert bare.rates is None and evaluated.rates is None
        assert bare.horizon == evaluated.horizon
        assert [k.machine_ids for k in bare.kernels] == [
            k.machine_ids for k in evaluated.kernels
        ]


@st.composite
def periodic_trace(draw):
    """A 2-4-level stepped pattern tiled 3-8 times, with jitter.

    Repeats of the same transition from the same serving set are what
    the control pass replays from episode templates; the plain stepped
    traces above rarely repeat one three times.
    """
    n_levels = draw(st.integers(2, 4))
    levels = draw(
        st.lists(
            st.floats(0.0, 2800.0, allow_nan=False, allow_infinity=False),
            min_size=n_levels,
            max_size=n_levels,
        )
    )
    durations = draw(
        st.lists(st.integers(60, 600), min_size=n_levels, max_size=n_levels)
    )
    reps = draw(st.integers(3, 8))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    period = np.concatenate(
        [np.full(d, lv) for lv, d in zip(levels, durations)]
    )
    values = np.tile(period, reps)
    if integer:
        values = np.round(values) + rng.integers(0, 20, size=len(values))
    else:
        values = values + rng.uniform(0.0, 20.0, size=len(values))
    return LoadTrace(np.maximum(values, 0.0))


_BOUNDED_INVENTORY = {"paravance": 1, "chromebook": 8, "raspberry": 8}


def _replay_builder(infra, trace, table_kind, spec, strategy, window):
    """``build()`` for a fresh replay over one of three tables: the plain
    table, a power-capped design, or a bounded inventory's clamped
    ``plan_detailed`` table (``test_constrained_nodes_bit_identical``'s
    construction)."""
    predictor = LookAheadMaxPredictor(window)
    inventory = None
    if table_kind == "plain":
        table = infra.table(3000.0)
    elif table_kind == "capped":
        table = _capped_infra(0.7).table(3000.0)
    else:
        inventory = _BOUNDED_INVENTORY
        table = BMLScheduler(
            infra, predictor=predictor, inventory=inventory
        ).plan_detailed(trace).table

    def build():
        return EventDrivenReplay(
            table, trace, predictor=predictor, app_spec=spec,
            balancer=LoadBalancer(strategy), inventory=inventory,
        )

    return build


class TestTemplatedEpisodes:
    """Repeated reconfiguration episodes replayed from per-pass templates
    stay bit-identical to the FSM, object state included."""

    @staticmethod
    def _check(build):
        results, replays = [], []
        for engine in ALL_ENGINES:
            replay = build()
            results.append(replay.run(engine=engine))
            replays.append(replay)
        _assert_identical(results[0], results[1], replays[0], replays[1])
        assert "templated_episodes" not in results[0].meta
        return results[1]

    @settings(max_examples=40, deadline=None)
    @given(
        periodic_trace(),
        st.sampled_from([(0.0, 0.0), (0.5, 0.5), (3.0, 2.5), (0.0, 7.0)]),
        st.sampled_from(["efficient", "proportional"]),
        st.sampled_from(["plain", "capped", "bounded"]),
        st.sampled_from([60, 200]),
    )
    def test_periodic_bit_identical(
        self, infra, trace, times, strategy, table_kind, window
    ):
        stop, start = times
        spec = ApplicationSpec(stop_time=stop, start_time=start)
        self._check(
            _replay_builder(infra, trace, table_kind, spec, strategy, window)
        )

    @pytest.mark.parametrize(
        "stop, start, templated",
        [(0.5, 0.5, True), (0, 1, True), (0.1, 0.2, False)],
    )
    def test_square_wave_replays_templates(
        self, infra, stop, start, templated
    ):
        """Deterministic hit case: the property above must keep reaching
        the templated path, not only the FSM.  Integer delays template
        too; delays that are not multiples of 2**-10 s switch it off."""
        period = np.concatenate([np.full(600, 200.0), np.full(600, 1400.0)])
        trace = LoadTrace(np.tile(period, 6))
        spec = ApplicationSpec(stop_time=stop, start_time=start)
        two = self._check(
            _replay_builder(infra, trace, "plain", spec, "efficient", 60)
        )
        assert (two.meta["templated_episodes"] > 0) is templated
        assert (two.meta["episode_templates"] > 0) is templated


@st.composite
def integral_trace(draw):
    """Stepped integer load, longer than its largest rate: the shape
    that takes the rate index (request counts at 1 Hz)."""
    n_levels = draw(st.integers(2, 4))
    levels = draw(
        st.lists(st.integers(0, 1500), min_size=n_levels, max_size=n_levels)
    )
    durations = draw(
        st.lists(st.integers(400, 700), min_size=n_levels, max_size=n_levels)
    )
    reps = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    period = np.concatenate(
        [np.full(d, float(lv)) for lv, d in zip(levels, durations)]
    )
    values = np.tile(period, reps)
    return LoadTrace(values + rng.integers(0, 20, size=len(values)))


_SPIKE_INVENTORY = {"paravance": 1, "chromebook": 8, "raspberry": 8}


def _rate_case(infra, name):
    """``(build, rate index expected, evaluated by rate)`` for one case."""
    rng = np.random.default_rng(11)
    square = np.tile(
        np.concatenate([np.full(600, 0.0), np.full(600, 1400.0)]), 3
    )
    inventory = None
    top = 3000.0
    if name == "integral":
        values = square + rng.integers(0, 20, size=len(square))
    elif name == "negative-zero":
        values = square.copy()
        values[:600:7] = -0.0
    elif name == "constant":
        values = np.full(3000, 700.0)
    elif name == "unserved":
        # past the bounded inventory's capacity: unserved demand written
        # through the rate index
        values = square * 2 + rng.integers(0, 20, size=len(square))
        inventory = {"paravance": 0, "chromebook": 12, "raspberry": 20}
    elif name == "spike":
        # rates {0, 2**21}: far past the trace length, and past the
        # bounded inventory, so the spike is unserved demand
        values = np.zeros(1800)
        values[900:1200] = 2.0**21
        inventory = _SPIKE_INVENTORY
    elif name == "wide-bands":
        # integral and below the trace length, but the serving sets'
        # bands together are longer than the trace
        values = np.zeros(6000)
        values[1:3000:2] = 1000.0
        values[3001::2] = 5999.0
        top = 6000.0
    else:  # "fractional": repeating, but not integral
        values = np.tile(np.repeat([200.5, 1400.25, 733.125], 600), 3)
    trace = LoadTrace(values)
    predictor = LookAheadMaxPredictor(200)
    if inventory is None:
        table = infra.table(top)
    else:
        table = BMLScheduler(
            infra, predictor=predictor, inventory=inventory
        ).plan_detailed(trace).table

    def build():
        return EventDrivenReplay(
            table, trace, predictor=predictor, inventory=inventory
        )

    by_rate = name in ("integral", "constant", "unserved")
    return build, by_rate or name == "wide-bands", by_rate


_RATE_CASES = (
    "integral", "negative-zero", "constant", "unserved", "spike",
    "wide-bands", "fractional",
)


class TestRateIndex:
    """The evaluate pass by integer rate against the FSM, and the inputs
    that must keep the per-second path."""

    @pytest.mark.parametrize("name", _RATE_CASES)
    def test_bit_identical_to_reference(self, infra, name):
        build = _rate_case(infra, name)[0]
        replays = [build() for _ in ALL_ENGINES]
        results = [r.run(engine=e) for r, e in zip(replays, ALL_ENGINES)]
        _assert_identical(results[0], results[1], replays[0], replays[1])
        if name in ("unserved", "spike"):
            assert results[0].unserved.any()

    @pytest.mark.parametrize("name", _RATE_CASES)
    def test_path_taken(self, infra, name):
        build, indexed, by_rate = _rate_case(infra, name)
        replay = build()
        plan = replay._control_pass()
        values = replay.trace.values
        assert (plan.rates is not None) is indexed
        if indexed:
            assert plan.rates.dtype == np.intp
            assert np.array_equal(plan.rates, values)
        seg_eval = replay._evaluate_pass(plan, values)[2]
        inverse = plan.rates if by_rate else None
        assert all(bundle[2] is inverse for bundle in seg_eval)
        if by_rate:  # offsets are the seconds themselves
            assert all(bundle[3] == bundle[5] for bundle in seg_eval)

    @settings(max_examples=15, deadline=None)
    @given(
        integral_trace(),
        st.sampled_from([(0.0, 0.0), (0.5, 0.5), (3.0, 2.5)]),
        st.sampled_from(["efficient", "proportional"]),
        st.sampled_from(["plain", "capped", "bounded"]),
    )
    def test_integral_bit_identical(
        self, infra, trace, times, strategy, table_kind
    ):
        stop, start = times
        spec = ApplicationSpec(stop_time=stop, start_time=start)
        build = _replay_builder(infra, trace, table_kind, spec, strategy, 200)
        replays = [build() for _ in ALL_ENGINES]
        results = [r.run(engine=e) for r, e in zip(replays, ALL_ENGINES)]
        _assert_identical(results[0], results[1], replays[0], replays[1])


def _batch_windows(meter, windows):
    """Journal ``(machine_id, powers, t_start)`` windows and transitions.

    ``windows`` holds per-second power windows and ``(machine_id, power,
    now)`` transitions in time order; each window is evaluated the way
    the two-phase replay evaluates a segment (unique values plus the
    gather index) and settled by ``record_batch_windows``, the meter's
    only producer of pending streams.
    """
    bundles = []
    meter.begin_batch()
    for entry in windows:
        if len(entry) == 3 and np.ndim(entry[1]) == 0:
            meter.set_power(*entry)
            continue
        machine_id, powers, t0 = entry
        uniq, inverse = np.unique(powers, return_inverse=True)
        meter.batch_mark(len(bundles))
        bundles.append(((machine_id,), (uniq,), inverse, 0, len(powers), t0))
    meter.record_batch_windows(bundles.__getitem__)


class TestDeferredLedgerProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_batch_windows_match_scalar_chain(self, data):
        """The journaled gather ledger replays the scalar chain.

        Gather windows (unique values + inverse) with a few interleaved
        transitions, the exact call pattern of the two-phase replay,
        must settle to the per-second ``set_power`` totals bit for bit.
        """
        n_windows = data.draw(st.integers(1, 4))
        scalar = EnergyMeter()
        deferred = EnergyMeter()
        for meter in (scalar, deferred):
            meter.set_power("m", 17.5, 0.0)
        t = data.draw(st.integers(1, 50))
        journal = []
        for _ in range(n_windows):
            n = data.draw(st.integers(1, 30))
            powers = np.array(
                data.draw(
                    st.lists(
                        st.floats(0.0, 500.0, allow_nan=False),
                        min_size=n,
                        max_size=n,
                    )
                )
            )
            for k, p in enumerate(powers):
                scalar.set_power("m", float(p), t + k)
            journal.append(("m", powers, t))
            t += n
            if data.draw(st.booleans()):  # a transition between windows
                power = data.draw(st.floats(0.0, 800.0, allow_nan=False))
                scalar.set_power("m", power, t)
                journal.append(("m", power, t))
                t += data.draw(st.integers(1, 5))
        _batch_windows(deferred, journal)
        scalar.finalize(t + 5)
        deferred.finalize(t + 5)
        assert scalar._totals == deferred._totals
        assert scalar.total_energy == deferred.total_energy


class TestStackedSettleProperty:
    """The multi-machine ledger settle.

    ``finalize`` settles every pending stream through ``_flush_all``, a
    loop over the per-machine ``_flush`` (each stream block-folded on
    its own); the property pins it bitwise against explicit per-machine
    ``_flush`` calls made before ``finalize``, under interleaved gather
    windows and scalar transitions across several machines, journaled
    through ``record_batch_windows``.
    """

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_flush_all_matches_per_machine_flush(self, data):
        n_machines = data.draw(st.integers(3, 5))
        mids = [f"m{i}" for i in range(n_machines)]
        stacked = EnergyMeter()
        separate = EnergyMeter()
        t = {}
        for i, mid in enumerate(mids):
            for meter in (stacked, separate):
                meter.set_power(mid, 10.0 + i, 0.0)
            t[mid] = 0
        journal = []
        n_ops = data.draw(st.integers(3, 12))
        for _ in range(n_ops):
            mid = data.draw(st.sampled_from(mids))
            kind = data.draw(st.sampled_from(["window", "transition"]))
            t0 = t[mid] + data.draw(st.integers(1, 4))
            if kind == "transition":
                power = data.draw(st.floats(0.0, 800.0, allow_nan=False))
                journal.append((mid, power, t0))
                t[mid] = t0
                continue
            n = data.draw(st.integers(1, 25))
            powers = np.array(
                data.draw(
                    st.lists(
                        st.floats(0.0, 500.0, allow_nan=False),
                        min_size=n,
                        max_size=n,
                    )
                )
            )
            journal.append((mid, powers, t0))
            t[mid] = t0 + n - 1
        for meter in (stacked, separate):
            _batch_windows(meter, journal)
        end = max(t.values()) + 5
        # One meter settles machine-by-machine through explicit
        # ``_flush`` calls; the other through ``finalize``'s ``_flush_all``.
        for mid in mids:
            separate._flush(mid)
        separate.finalize(end)
        stacked.finalize(end)
        assert stacked._totals == separate._totals
        assert stacked.total_energy == separate.total_energy


def _captured_set_power_run(replay, engine):
    """Run ``replay`` recording every ``meter.set_power`` call in order."""
    calls = []
    meter = replay.meter
    orig = meter.set_power

    def recorder(machine_id, power, now):
        calls.append((machine_id, power, now))
        orig(machine_id, power, now)

    meter.set_power = recorder
    try:
        result = replay.run(engine=engine)
    finally:
        del meter.set_power
    return result, calls


class TestReconfigSchedule:
    """PR 9: the batched reconfiguration schedule.

    The two-phase engine resolves every reconfiguration up front with
    the shared decision walk and executes the entries through the real
    FSM (``_start_scheduled``); the reference engine decides them one
    second at a time and reads its durations off the FSM.  The schedule
    is correct iff both produce the identical ``Reconfiguration`` log
    and identical per-machine ledgers.
    """

    def _assert_schedule_matches_reference(self, build):
        ref_replay = build()
        ref = ref_replay.run(engine="reference")
        two_replay = build()
        two, two_calls = _captured_set_power_run(two_replay, "twophase")
        # every field, including boot/off durations
        assert two.reconfigurations == ref.reconfigurations
        assert two_replay.meter._totals == ref_replay.meter._totals
        assert two_replay.stats == ref_replay.stats
        # Journal shape: a bare control pass leaves the journal open —
        # marker tokens must be the descriptor indices in order, and the
        # non-marker entries exactly the recorded transition stream.
        bare = build()
        plan = bare._control_pass()
        journal = bare.meter._batch
        markers = [e for e in journal if not isinstance(e, tuple)]
        tuples = [e for e in journal if isinstance(e, tuple)]
        assert markers == list(range(len(plan.descs)))
        # The journaled transition stream is the control-pass prefix of
        # the full twophase run's ``set_power`` stream (the rest are
        # finalize-era closes, issued after the journal settles).
        assert tuples == two_calls[: len(tuples)]

    @settings(max_examples=6, deadline=None)
    @given(stepped_trace(), st.sampled_from([0.5, 0.9]))
    def test_schedule_matches_fsm_under_powercap(self, trace, frac):
        table = _capped_infra(frac).table(3000.0)
        self._assert_schedule_matches_reference(
            lambda: EventDrivenReplay(
                table, trace,
                predictor=LookAheadMaxPredictor(200),
                app_spec=ApplicationSpec(),
            )
        )

    @settings(max_examples=6, deadline=None)
    @given(
        stepped_trace(),
        st.sampled_from([(0.5, 0.5), (3.0, 2.5), (0.0, 7.0)]),
    )
    def test_schedule_matches_fsm_with_start_stop_times(
        self, infra, trace, times
    ):
        stop, start = times
        table = infra.table(3000.0)
        self._assert_schedule_matches_reference(
            lambda: EventDrivenReplay(
                table, trace,
                predictor=LookAheadMaxPredictor(200),
                app_spec=ApplicationSpec(stop_time=stop, start_time=start),
            )
        )

    @settings(max_examples=6, deadline=None)
    @given(
        stepped_trace(),
        st.sampled_from(
            [
                {"paravance": 1, "chromebook": 8, "raspberry": 8},
                {"paravance": 0, "chromebook": 12, "raspberry": 20},
            ]
        ),
    )
    def test_schedule_matches_fsm_bounded_inventory(
        self, infra, trace, inventory
    ):
        predictor = LookAheadMaxPredictor(200)
        outcome = BMLScheduler(
            infra, predictor=predictor, inventory=inventory
        ).plan_detailed(trace)
        self._assert_schedule_matches_reference(
            lambda: EventDrivenReplay(
                outcome.table, trace,
                predictor=predictor, inventory=inventory,
            )
        )


class TestWindowedBalancer:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_balance_series_matches_per_second(self, toy_profiles, data):
        """The serving-set kernel's balance series is per-second
        ``LoadBalancer.balance`` plus ``idle + slope * load`` draws, bit
        for bit."""
        from repro.sim.loadbalancer import serving_set_kernel
        from repro.sim.machine import Machine, MachineState

        big, little = toy_profiles
        meter = EnergyMeter()
        machines = []
        for i, prof in enumerate([big, little, little]):
            m = Machine(machine_id=f"m{i}", profile=prof, meter=meter)
            m.state = MachineState.ON
            machines.append(m)
        strategy = data.draw(st.sampled_from(["efficient", "proportional"]))
        n = data.draw(st.integers(1, 60))
        rates = np.array(
            data.draw(
                st.lists(
                    st.floats(0.0, 200.0, allow_nan=False),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        lb = LoadBalancer(strategy)
        window = serving_set_kernel(strategy, machines).evaluate(rates)
        unserved, loads, draws = window.unserved, window.loads, window.draws
        for k, rate in enumerate(rates):
            scalar = lb.balance(float(rate), machines)
            assert scalar.unserved == unserved[k]
            for i, m in enumerate(machines):
                share = scalar.shares[m.machine_id]
                assert share == loads[i][k]
                assert (
                    m.profile.idle_power + m.profile.slope * share
                    == draws[i][k]
                )
