"""Tests for the declarative scenario subsystem.

Covers the acceptance contract of the subsystem: spec round-tripping,
registry completeness across the extension axes, parallel suite results
equal to sequential ones, and the four paper scenarios reproducing
``experiments.run_fig5`` — and the pre-refactor hand-wired construction —
bit-identically.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import experiments, scenarios
from repro.core.baselines import global_upper_bound_plan, per_day_upper_bound_plan
from repro.core.bml import design
from repro.core.prediction import LookAheadMaxPredictor
from repro.core.profiles import table_i_profiles
from repro.core.scheduler import BMLScheduler
from repro.scenarios.spec import ScenarioError
from repro.sim.datacenter import execute_plan, lower_bound_result
from repro.workload.worldcup import synthesize

pytestmark = pytest.mark.quick


@pytest.fixture(autouse=True)
def _no_fig5_days_env(monkeypatch):
    """Day-count assertions must not depend on the caller's environment;
    tests exercising the override set the variable themselves."""
    monkeypatch.delenv(scenarios.FIG5_DAYS_ENV, raising=False)


class TestSpecRoundTrip:
    def test_every_registry_spec_round_trips_via_json(self):
        for spec in scenarios.specs():
            data = json.loads(json.dumps(spec.to_dict()))
            assert scenarios.ScenarioSpec.from_dict(data) == spec, spec.name

    def test_nested_frozen_fields_round_trip(self):
        spec = scenarios.ScenarioSpec(
            name="x",
            powercap=0.5,
            workload=scenarios.WorkloadSpec(
                source="pattern", pattern="flashcrowd", days=3,
                params=(("sigma", 0.1),),
            ),
            scheduler=scenarios.SchedulerSpec(
                policy="bml", inventory=(("paravance", 2), ("raspberry", 5)),
            ),
            tags=("a", "b"),
        )
        back = scenarios.ScenarioSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.scheduler.inventory_dict() == {"paravance": 2, "raspberry": 5}

    def test_specs_are_hashable(self):
        assert len({spec for spec in scenarios.specs()}) == len(scenarios.specs())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"source": "starlink"},
            {"days": 0},
            {"source": "csv"},  # path required
            {"source": "pattern", "pattern": "nope"},
        ],
    )
    def test_bad_workloads_rejected(self, kwargs):
        with pytest.raises(ScenarioError):
            scenarios.WorkloadSpec(**kwargs)

    def test_bad_scheduler_rejected(self):
        with pytest.raises(ScenarioError):
            scenarios.SchedulerSpec(policy="magic")
        with pytest.raises(ScenarioError):
            scenarios.SchedulerSpec(
                inventory=(("paravance", 1),), max_instances=3
            )

    def test_bad_scenario_rejected(self):
        with pytest.raises(ScenarioError):
            scenarios.ScenarioSpec(name="x", powercap=1.5)
        with pytest.raises(ScenarioError):
            scenarios.ScenarioSpec(
                name="x",
                engine="event",
                scheduler=scenarios.SchedulerSpec(policy="lower-bound"),
            )

    @pytest.mark.parametrize(
        "engine", ["event", "event-twophase", "event-reference"]
    )
    def test_event_engines_take_the_bml_policy_only(self, engine):
        """The event replay walks the BML rule: a transition-aware spec
        on it would silently replay BML decisions instead."""
        with pytest.raises(ScenarioError, match="transition-aware"):
            scenarios.ScenarioSpec(
                name="x",
                engine=engine,
                scheduler=scenarios.SchedulerSpec(policy="transition-aware"),
            )
        spec = scenarios.ScenarioSpec(name="x", engine=engine)
        assert spec.scheduler.policy == "bml"

    def test_days_env_override(self, monkeypatch):
        wl = scenarios.WorkloadSpec(days=87)
        assert wl.resolved_days() == 87
        monkeypatch.setenv(scenarios.FIG5_DAYS_ENV, "3")
        assert wl.resolved_days() == 3
        assert wl.days == 87  # the field is the source of truth

    def test_explicit_build_days_beats_env(self, monkeypatch):
        monkeypatch.setenv(scenarios.FIG5_DAYS_ENV, "3")
        wl = scenarios.WorkloadSpec(days=87)
        assert wl.build(days=1).n_days == 1
        # run_fig5's n_days is explicit and must win over the env var
        out = experiments.run_fig5(n_days=2, seed=3)
        assert out.trace.n_days == 2

    def test_with_days_pins_against_env(self, monkeypatch):
        monkeypatch.setenv(scenarios.FIG5_DAYS_ENV, "3")
        pinned = scenarios.get("paper-bml").with_days(1)
        assert pinned.workload.resolved_days() == 1
        # round-trips like every other field
        back = scenarios.ScenarioSpec.from_dict(pinned.to_dict())
        assert back == pinned

    def test_freeze_canonicalises_item_order(self):
        a = scenarios.SchedulerSpec(
            inventory=(("raspberry", 10), ("paravance", 2))
        )
        b = scenarios.SchedulerSpec(
            inventory=(("paravance", 2), ("raspberry", 10))
        )
        assert a == b and hash(a) == hash(b)
        assert scenarios.SchedulerSpec.from_dict(a.to_dict()) == a


class TestRegistry:
    def test_paper_scenarios_present_with_published_labels(self):
        labels = [scenarios.get(n).scenario_label for n in scenarios.PAPER_SCENARIOS]
        assert labels == [
            "UpperBound Global",
            "UpperBound PerDay",
            "Big-Medium-Little",
            "LowerBound Theoretical",
        ]
        for name in scenarios.PAPER_SCENARIOS:
            assert scenarios.get(name).workload.days == 87

    def test_catalogue_covers_the_extension_axes(self):
        specs = scenarios.specs()
        assert len(specs) >= 10
        assert any(s.scheduler.max_instances is not None for s in specs)
        assert any(s.scheduler.inventory is not None for s in specs)
        assert any(s.powercap is not None for s in specs)
        assert any(s.scheduler.noise_sigma > 0 for s in specs)
        assert any(s.workload.source == "pattern" for s in specs)
        assert any(
            s.scheduler.policy in ("upper-global", "upper-per-day")
            and "paper" not in s.tags
            for s in specs
        )
        assert any(s.engine != "fast" for s in specs)
        assert any(s.workload.source == "wc98" for s in specs)

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(ScenarioError, match="paper-bml"):
            scenarios.get("paper-bmI")

    def test_register_rejects_duplicates(self):
        spec = scenarios.get("paper-bml")
        with pytest.raises(ScenarioError):
            scenarios.register(spec)
        # replace=True is the explicit override path
        assert scenarios.register(spec, replace=True) is spec

    def test_by_tag(self):
        assert {s.name for s in scenarios.by_tag("fig5")} == set(
            scenarios.PAPER_SCENARIOS
        )


class TestRunScenario:
    def test_run_sets_label_and_metadata(self):
        run = scenarios.run_scenario(scenarios.get("pattern-steady"))
        assert run.name == "pattern-steady"
        assert run.scenario == "pattern-steady"
        assert run.result.total_energy > 0
        assert run.days == 1
        assert 0 <= run.qos().served_fraction <= 1
        row = run.summary_row()
        assert {"scenario", "energy_kwh", "reconfigs", "served_frac"} <= set(row)

    def test_override_objects_take_precedence(self, infra, short_trace):
        spec = scenarios.get("paper-bml")
        run = scenarios.run_scenario(spec, trace=short_trace, infra=infra)
        assert len(run.result.power) == len(short_trace)
        assert run.trace_peak == short_trace.peak

    def test_powercap_raises_energy_floor_not_peak(self):
        capped = scenarios.run_scenario(scenarios.get("power-capped").with_days(1))
        uncapped_spec = replace(
            scenarios.get("power-capped").with_days(1), name="uncapped",
            powercap=None,
        )
        uncapped = scenarios.run_scenario(uncapped_spec)
        # capping shrinks per-machine capacity -> more machines -> more idle
        assert capped.result.total_energy >= uncapped.result.total_energy


class TestRunSuite:
    SPECS = [
        "pattern-steady",
        "constrained-redundant",
        "inventory-small-dc",
    ]

    def _small_specs(self):
        return [scenarios.get(n).with_days(1) for n in self.SPECS]

    def test_parallel_equals_sequential(self):
        specs = self._small_specs()
        seq = scenarios.run_suite(specs, jobs=1)
        par = scenarios.run_suite(specs, jobs=2)
        assert [r.name for r in par] == [r.name for r in seq]
        for a, b in zip(seq, par):
            assert np.array_equal(a.result.power, b.result.power)
            assert np.array_equal(a.result.unserved, b.result.unserved)
            assert a.result.n_reconfigurations == b.result.n_reconfigurations
            assert a.result.switch_energy == b.result.switch_energy

    def test_bad_jobs_rejected(self):
        with pytest.raises(ScenarioError):
            scenarios.run_suite([], jobs=0)

    def test_shared_trace_override_applies_to_every_scenario(self, short_trace):
        specs = [scenarios.get(n) for n in self.SPECS[:2]]
        runs = scenarios.run_suite(specs, trace=short_trace)
        for run in runs:
            assert len(run.result.power) == len(short_trace)
            assert run.trace_peak == short_trace.peak


class TestChunkedFanOut:
    """PR 5: workload-chunked scheduling with warm-cache shipping."""

    def _catalogue(self, days=1):
        return [
            s.with_days(days)
            for s in scenarios.specs()
            if "paper" not in s.tags and s.workload.is_available()
        ]

    def test_chunks_partition_all_indices(self):
        specs = self._catalogue()
        chunks = scenarios.chunk_specs(specs, 4)
        flat = sorted(i for chunk in chunks for i in chunk)
        assert flat == list(range(len(specs)))
        # one task per workload piece, biggest first (LPT dispatch order)
        sizes = [len(c) for c in chunks]
        assert sizes == sorted(sizes, reverse=True)

    def test_same_workload_coalesces_within_fair_share(self):
        specs = [
            scenarios.get(n).with_days(1)
            for n in ("pattern-steady", "noisy-prediction", "pattern-flashcrowd")
        ]
        # three distinct workloads -> three singleton tasks
        chunks = scenarios.chunk_specs(specs, 2)
        assert sorted(len(c) for c in chunks) == [1, 1, 1]
        # duplicate workloads coalesce: the same spec listed twice always
        # lands in one chunk
        dup = [specs[0], specs[1], specs[0]]
        chunks = scenarios.chunk_specs(dup, 2)
        together = [c for c in chunks if 0 in c]
        assert together and 2 in together[0]

    def test_oversized_groups_split_to_fair_share(self):
        specs = [scenarios.get("pattern-steady").with_days(1)] * 8
        chunks = scenarios.chunk_specs(specs, 4)
        assert sorted(len(c) for c in chunks) == [2, 2, 2, 2]

    def test_fleet_grid_chunks_share_trace_days(self):
        """The fleet grid at one seed holds 36 one-day and 36 two-day
        points: the 2-day workload splits so that two workers get 54
        trace-days each, not the 1-day group and the 2-day group."""
        sweep = scenarios.get_sweep("fleet-grid")
        axes = tuple(
            (axis, values[:1] if axis == "seed" else values)
            for axis, values in sweep.axes
        )
        specs = replace(sweep, axes=axes).expand()
        chunks = scenarios.chunk_specs(specs, 2)
        assert [len(c) for c in chunks] == [27, 36, 9]
        assert [
            sum(specs[i].workload.resolved_days() for i in c) for c in chunks
        ] == [54, 36, 18]

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_uniform_days_keep_the_spec_count_share(self, jobs):
        steady = scenarios.get("pattern-steady").with_days(2)
        flash = scenarios.get("pattern-flashcrowd").with_days(2)
        specs = [steady] * 7 + [flash] * 2  # an odd spec count
        size = -(-len(specs) // jobs)  # ceil(n / jobs)
        expected = [
            idxs[k : k + size]
            for idxs in (list(range(7)), [7, 8])
            for k in range(0, len(idxs), size)
        ]
        expected.sort(key=lambda c: (-len(c), c[0]))
        assert scenarios.chunk_specs(specs, jobs) == expected
        if jobs == 2:
            assert expected == [[0, 1, 2, 3, 4], [5, 6], [7, 8]]

    def test_chunking_is_deterministic(self):
        specs = self._catalogue()
        assert scenarios.chunk_specs(specs, 3) == scenarios.chunk_specs(
            specs, 3
        )

    def test_chunked_matches_sequential(self):
        specs = [
            scenarios.get(n).with_days(1)
            for n in (
                "pattern-steady",
                "constrained-redundant",
                "inventory-small-dc",
                "noisy-prediction",
            )
        ]
        seq = scenarios.run_suite(specs, jobs=1)
        chunked = scenarios.run_suite(specs, jobs=2)
        for a, b in zip(seq, chunked):
            assert a.name == b.name
            assert np.array_equal(a.result.power, b.result.power)
            assert np.array_equal(a.result.unserved, b.result.unserved)
            assert a.result.switch_energy == b.result.switch_energy
            assert a.result.meta == b.result.meta

    def test_prewarmed_parent_cache_ships_bit_identical_results(self):
        specs = [
            scenarios.get(n).with_days(1)
            for n in ("pattern-steady", "pattern-flashcrowd")
        ]
        scenarios.clear_caches()
        cold = scenarios.run_suite(specs, jobs=2)
        # parent cache is now warm: the chunked pool receives the built
        # traces instead of rebuilding them, with identical results
        warm = scenarios.run_suite(specs, jobs=2)
        for a, b in zip(cold, warm):
            assert np.array_equal(a.result.power, b.result.power)
            assert a.result.total_energy == b.result.total_energy


class TestPaperBitIdentity:
    """The four paper scenarios must reproduce the Fig. 5 numbers exactly."""

    DAYS, SEED = 2, 3

    @pytest.fixture(scope="class")
    def fig5(self):
        return experiments.run_fig5(n_days=self.DAYS, seed=self.SEED)

    @pytest.fixture(scope="class")
    def suite(self):
        specs = [
            replace(
                scenarios.get(name),
                workload=replace(
                    scenarios.get(name).workload, days=self.DAYS, seed=self.SEED
                ),
            )
            for name in scenarios.PAPER_SCENARIOS
        ]
        # class-scoped fixtures set up before the autouse env guard
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv(scenarios.FIG5_DAYS_ENV, raising=False)
            return scenarios.run_suite(specs)

    def test_registry_scenarios_match_run_fig5(self, fig5, suite):
        by_label = {r.result.scenario: r.result for r in suite}
        for res in fig5.results:
            other = by_label[res.scenario]
            assert np.array_equal(res.power, other.power), res.scenario
            assert np.array_equal(res.unserved, other.unserved)
            assert res.n_reconfigurations == other.n_reconfigurations
            assert res.switch_energy == other.switch_energy

    def test_run_fig5_matches_pre_refactor_construction(self, fig5):
        """Pin the PR 2 Fig. 5 numbers: the hand-wired construction the
        subsystem replaced, reproduced verbatim."""
        trace = synthesize(n_days=self.DAYS, seed=self.SEED)
        infra = design(table_i_profiles())
        scheduler = BMLScheduler(
            infra, predictor=LookAheadMaxPredictor(378), method="greedy"
        )
        bml = execute_plan(scheduler.plan(trace), trace, "Big-Medium-Little")
        upper_global = execute_plan(
            global_upper_bound_plan(trace, infra.big), trace, "UpperBound Global"
        )
        upper_per_day = execute_plan(
            per_day_upper_bound_plan(trace, infra.big), trace, "UpperBound PerDay"
        )
        lower = lower_bound_result(
            trace,
            infra.table(max(trace.peak, 1.0), "greedy"),
            "LowerBound Theoretical",
        )
        for mine, ref in zip(
            fig5.results, (upper_global, upper_per_day, bml, lower)
        ):
            assert mine.scenario == ref.scenario
            assert np.array_equal(mine.power, ref.power), ref.scenario
            assert np.array_equal(mine.unserved, ref.unserved)
        ref_overhead = bml.per_day_energy() / lower.per_day_energy() - 1.0
        assert np.array_equal(fig5.overhead.per_day, ref_overhead)
        assert fig5.overhead.mean == float(np.mean(ref_overhead))
        assert fig5.overhead.minimum == float(np.min(ref_overhead))
        assert fig5.overhead.maximum == float(np.max(ref_overhead))

    def test_run_fig5_signature_unchanged(self):
        import inspect

        params = list(inspect.signature(experiments.run_fig5).parameters)
        assert params == [
            "trace", "infra", "predictor", "n_days", "seed", "method",
            "policy", "engine",
        ]


class TestWC98Scenarios:
    """Archive-file catalogue entries, replayed end to end on synthetic
    logs written through :mod:`repro.workload.wc98format`'s writer."""

    def _write_logs(self, tmp_path):
        """Two hours of archive-format records; returns (glob, n_requests)."""
        from repro.workload.wc98format import write_records

        rng = np.random.default_rng(7)
        base = 894_000_000
        seconds = np.arange(2 * 3600)
        counts = (50 + 30 * np.sin(seconds / 600.0)).astype(np.int64)
        stamps = np.repeat(base + seconds, counts)
        write_records(tmp_path / "wc98_day00.log.gz", stamps, rng)
        return str(tmp_path / "*.log.gz"), int(counts.sum())

    def test_archive_entries_registered(self):
        for name in ("wc98-archive-bml", "wc98-archive-upper"):
            spec = scenarios.get(name)
            assert spec.workload.source == "wc98"
            assert "wc98" in spec.tags

    def test_availability_reflects_missing_archive(self, tmp_path):
        # the checked-in entries point at data/wc98/ which this repo
        # does not ship; sweeps must skip them, not crash
        assert not scenarios.get("wc98-archive-bml").workload.is_available()
        glob_path, _ = self._write_logs(tmp_path)
        wl = replace(
            scenarios.get("wc98-archive-bml").workload, path=glob_path
        )
        assert wl.is_available()
        # synthetic sources are always available
        assert scenarios.get("pattern-steady").workload.is_available()

    def test_end_to_end_replay_of_synthetic_archive_logs(self, tmp_path):
        glob_path, n_requests = self._write_logs(tmp_path)
        specs = [
            replace(
                scenarios.get(name),
                workload=replace(
                    scenarios.get(name).workload, path=glob_path
                ),
            )
            for name in ("wc98-archive-bml", "wc98-archive-upper")
        ]
        runs = scenarios.run_suite(specs)
        for run in runs:
            assert run.result.total_energy > 0
            # the replayed demand is exactly the written request count
            assert run.trace_total_demand == pytest.approx(n_requests)
        # and the runs distil into comparable records like any other
        bml, upper = (run.to_record() for run in runs)
        assert bml.total_energy_j < upper.total_energy_j
        assert bml.spec["workload"]["source"] == "wc98"


class TestEngines:
    def test_event_engine_matches_fast_path(self):
        spec = scenarios.get("event-engine-day")
        event = scenarios.run_scenario(spec)
        fast = scenarios.run_scenario(replace(spec, name="fastpath", engine="fast"))
        assert np.allclose(event.result.power, fast.result.power, atol=1e-9)
        assert event.result.n_reconfigurations == fast.result.n_reconfigurations

    def test_event_alias_is_twophase_and_variants_are_bit_identical(self):
        spec = scenarios.get("event-engine-day").with_days(1)
        runs = {
            engine: scenarios.run_scenario(replace(spec, engine=engine))
            for engine in ("event", "event-twophase", "event-reference")
        }
        assert runs["event"].result.meta["engine"] == "twophase"
        assert runs["event-twophase"].result.meta["engine"] == "twophase"
        assert runs["event-reference"].result.meta["engine"] == "reference"
        ref = runs["event-reference"].result
        for name, run in runs.items():
            assert np.array_equal(run.result.power, ref.power), name
            assert np.array_equal(run.result.unserved, ref.unserved), name
            assert (
                run.result.meta["meter_energy_j"] == ref.meta["meter_energy_j"]
            ), name

    def test_engine_names_validated(self):
        with pytest.raises(ScenarioError):
            replace(scenarios.get("event-engine-day"), engine="event-warp")

    def test_event_engines_read_the_table_without_planning(self, monkeypatch):
        """The replay needs the planner's table only: no plan is built."""

        def no_plan(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("an event engine built a plan")

        spec = scenarios.get("event-engine-day").with_days(1)
        want = scenarios.run_scenario(spec).result
        monkeypatch.setattr(BMLScheduler, "plan_detailed", no_plan)
        got = scenarios.run_scenario(spec).result
        assert np.array_equal(got.power, want.power)
        assert got.reconfigurations == want.reconfigurations


class TestColumnarPath:
    """Plans and logs stay columns from planning to a stored record."""

    @pytest.mark.parametrize(
        "name", ["paper-bml", "inventory-small-dc", "event-engine-day"]
    )
    def test_no_row_is_built_from_plan_to_record(self, name, monkeypatch):
        """Wrapping the row constructors counts no ``Segment`` or
        ``Reconfiguration`` through a run, its reply pickle and its
        record, while reading one row counts one."""
        import pickle

        from repro.core.reconfiguration import Reconfiguration, Segment

        built = {Segment: 0, Reconfiguration: 0}
        for cls in built:
            original = cls.__new__

            def counted(kind, *args, _original=original, **kwargs):
                built[kind] += 1
                return _original(kind, *args, **kwargs)

            monkeypatch.setattr(cls, "__new__", staticmethod(counted))
        spec = scenarios.get(name).with_days(1)
        run = pickle.loads(pickle.dumps(scenarios.run_scenario(spec)))
        record = run.to_record()
        assert record.n_reconfigurations == len(run.result.reconfigurations) > 0
        assert built == {Segment: 0, Reconfiguration: 0}
        run.result.reconfigurations[0]
        assert built == {Segment: 0, Reconfiguration: 1}


class TestStartMethods:
    """PR 6: warm-cache shipping is start-method aware.

    Under ``fork`` workers inherit the parent's caches copy-on-write, so
    no trace bytes travel through the pool pipes; under ``spawn`` the
    prebuilt traces ship explicitly.  Both regimes must produce results
    bit-identical to the sequential run.
    """

    SPECS = ("pattern-steady", "pattern-flashcrowd")

    def _specs(self):
        return [scenarios.get(n).with_days(1) for n in self.SPECS]

    def _assert_matches_sequential(self, start_method):
        specs = self._specs()
        seq = scenarios.run_suite(specs, jobs=1)
        # warm parent cache: the interesting shipping path on both methods
        par = scenarios.run_suite(specs, jobs=2, start_method=start_method)
        for a, b in zip(seq, par):
            assert a.name == b.name
            assert np.array_equal(a.result.power, b.result.power)
            assert np.array_equal(a.result.unserved, b.result.unserved)
            assert a.result.meta == b.result.meta

    def test_fork_start_method(self):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork start method")
        self._assert_matches_sequential("fork")

    def test_spawn_start_method(self):
        self._assert_matches_sequential("spawn")

    def test_fork_restores_worker_shared_global(self):
        """The parent-side global the fork pool installs is transient."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no fork start method")
        from repro.scenarios import runner

        before = dict(runner._WORKER_SHARED)
        scenarios.run_suite(
            self._specs(), jobs=2, start_method="fork"
        )
        assert runner._WORKER_SHARED == before
