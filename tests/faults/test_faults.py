"""Fault-injection harness semantics + in-process recovery paths.

Covers the :mod:`repro.faults` contract itself (plan matching, seeded
determinism, scoped installation, the no-op default) and every recovery
path that does not need a worker pool: sequential retry, graceful
degradation into :class:`FailedRun`, store quarantine of corrupt
checkpoints, trace-read failures, and sequential checkpoint-resume.
The worker-level paths (crash / hang / replacement) live in
``test_pool_failures.py``.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro import faults, scenarios
from repro.results import QuarantinedRun, RunStore, ScenarioResult
from repro.scenarios import FailedRun, RetryPolicy, SuiteExecutionError
from repro.scenarios.spec import ScenarioError

pytestmark = pytest.mark.quick


def _suite(n=3, days=1):
    base = scenarios.get("pattern-steady").with_days(days)
    return [
        replace(base, name=f"s{k}", workload=replace(base.workload, seed=40 + k))
        for k in range(n)
    ]


# ---------------------------------------------------------------------------
# Plan semantics
# ---------------------------------------------------------------------------


class TestFault:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.Fault("disk-on-fire")

    def test_fail_attempts_validated(self):
        with pytest.raises(ValueError):
            faults.Fault("spec-error", fail_attempts=0)
        with pytest.raises(ValueError):
            faults.Fault("worker-hang", hang_s=0.0)

    def test_transient_fires_only_below_fail_attempts(self):
        fault = faults.Fault("spec-error", "s0", fail_attempts=1)
        assert fault.matches("spec-error", "s0", 0)
        assert not fault.matches("spec-error", "s0", 1)  # the retry succeeds

    def test_persistent_outlives_any_retry_budget(self):
        fault = faults.Fault("spec-error", "s0", fail_attempts=faults.ALWAYS)
        assert fault.matches("spec-error", "s0", 999)

    def test_key_is_fnmatch_pattern(self):
        fault = faults.Fault("spec-error", "bml-*")
        assert fault.matches("spec-error", "bml-87d", 0)
        assert not fault.matches("spec-error", "upper-87d", 0)
        assert not fault.matches("worker-crash", "bml-87d", 0)

    def test_injected_fault_pickles_round_trip(self):
        # A dump-but-not-load exception kills the pool's result-handler
        # thread; the harness's own exception must round-trip cleanly.
        exc = faults.InjectedFault("spec-error", "s1", 2)
        back = pickle.loads(pickle.dumps(exc))
        assert (back.site, back.key, back.attempt) == ("spec-error", "s1", 2)
        assert str(back) == str(exc)


class TestFaultPlan:
    def test_find_returns_first_match(self):
        plan = faults.FaultPlan(
            faults=(
                faults.Fault("spec-error", "s*", fail_attempts=1),
                faults.Fault("spec-error", "s0", fail_attempts=faults.ALWAYS),
            )
        )
        found = plan.find("spec-error", "s0", 0)
        assert found is plan.faults[0]
        # the broad transient no longer matches attempt 1; the second does
        assert plan.find("spec-error", "s0", 1) is plan.faults[1]
        assert plan.find("spec-error", "s1", 1) is None

    def test_seeded_is_deterministic(self):
        keys = [f"s{k}" for k in range(20)]
        a = faults.FaultPlan.seeded(7, keys, rate=0.3)
        b = faults.FaultPlan.seeded(7, keys, rate=0.3)
        assert a == b
        assert a.seed == 7
        different = faults.FaultPlan.seeded(8, keys, rate=0.3)
        assert {f.key for f in a.faults} != {f.key for f in different.faults}

    def test_seeded_rate_bounds(self):
        keys = ["s0", "s1"]
        assert faults.FaultPlan.seeded(1, keys, rate=0.0).faults == ()
        full = faults.FaultPlan.seeded(1, keys, rate=1.0)
        assert {f.key for f in full.faults} == set(keys)
        with pytest.raises(ValueError):
            faults.FaultPlan.seeded(1, keys, rate=1.5)


class TestInstallation:
    def test_noop_default(self):
        assert faults.active() is None
        assert not faults.check("spec-error", "anything")
        faults.fire("spec-error", "anything")  # must not raise

    def test_injected_scopes_and_restores(self):
        outer = faults.FaultPlan(faults=(faults.Fault("spec-error", "x"),))
        inner = faults.FaultPlan(faults=(faults.Fault("trace-read", "y"),))
        with faults.injected(outer):
            assert faults.active() is outer
            with faults.injected(inner):
                assert faults.active() is inner
            assert faults.active() is outer
        assert faults.active() is None

    def test_injected_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with faults.injected(faults.FaultPlan()):
                raise RuntimeError("boom")
        assert faults.active() is None

    def test_fire_raises_injected_fault(self):
        plan = faults.FaultPlan(faults=(faults.Fault("spec-error", "s0"),))
        with faults.injected(plan):
            with pytest.raises(faults.InjectedFault):
                faults.fire("spec-error", "s0", 0)
            faults.fire("spec-error", "s1", 0)  # unmatched key: no-op
            faults.fire("spec-error", "s0", 1)  # retry attempt: recovered


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ScenarioError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ScenarioError):
            RetryPolicy(timeout_s=0)
        with pytest.raises(ScenarioError):
            RetryPolicy(backoff_factor=0.5)

    def test_exponential_delay(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0)
        assert policy.delay(0) == 0.0
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# Sequential recovery paths (jobs=1)
# ---------------------------------------------------------------------------


class TestSequentialRecovery:
    RETRY = RetryPolicy(max_attempts=2, backoff_s=0.0)

    def test_transient_error_recovers_on_retry(self, short_trace, infra):
        specs = _suite()
        plan = faults.FaultPlan(
            faults=(faults.Fault("spec-error", "s1", fail_attempts=1),)
        )
        with faults.injected(plan):
            out = scenarios.run_suite(
                specs, retry=self.RETRY, trace=short_trace, infra=infra
            )
        assert [o.name for o in out] == ["s0", "s1", "s2"]
        assert all(isinstance(o, scenarios.ScenarioRun) for o in out)

    def test_persistent_error_degrades_to_failed_run(self, short_trace, infra):
        specs = _suite()
        plan = faults.FaultPlan(
            faults=(
                faults.Fault("spec-error", "s1", fail_attempts=faults.ALWAYS),
            )
        )
        with faults.injected(plan):
            out = scenarios.run_suite(
                specs,
                retry=self.RETRY,
                keep_going=True,
                trace=short_trace,
                infra=infra,
            )
        failed = [o for o in out if isinstance(o, FailedRun)]
        assert [f.name for f in failed] == ["s1"]
        assert failed[0].error_type == "InjectedFault"
        assert failed[0].attempts == 2
        assert "injected fault" in failed[0].message
        assert failed[0].traceback  # full traceback captured
        row = failed[0].summary_row()
        assert row["scenario"] == "s1" and row["attempts"] == 2

    def test_fail_fast_reraises_original_exception(self, short_trace, infra):
        specs = _suite()
        plan = faults.FaultPlan(
            faults=(
                faults.Fault("spec-error", "s0", fail_attempts=faults.ALWAYS),
            )
        )
        with faults.injected(plan):
            with pytest.raises(faults.InjectedFault):
                scenarios.run_suite(
                    specs, retry=self.RETRY, trace=short_trace, infra=infra
                )

    def test_failures_surface_in_suite_report(self, short_trace, infra):
        from repro.results import SuiteReport

        specs = _suite()
        plan = faults.FaultPlan(
            faults=(
                faults.Fault("spec-error", "s2", fail_attempts=faults.ALWAYS),
            )
        )
        with faults.injected(plan):
            out = scenarios.run_suite(
                specs,
                retry=self.RETRY,
                keep_going=True,
                trace=short_trace,
                infra=infra,
            )
        report = SuiteReport.from_runs(out)
        assert [r.name for r in report.results] == ["s0", "s1"]
        assert [f.name for f in report.failures] == ["s2"]
        rendered = report.render()
        assert "failures (1)" in rendered
        assert "InjectedFault" in rendered

    def test_invalid_option_combinations(self, short_trace, infra):
        specs = _suite(2)
        with pytest.raises(ScenarioError, match="requires a store"):
            scenarios.run_suite(specs, resume=True)


# ---------------------------------------------------------------------------
# Checkpoint / resume (sequential path) + store quarantine
# ---------------------------------------------------------------------------


class TestCheckpointResume:
    RETRY = RetryPolicy(max_attempts=1, backoff_s=0.0)

    def test_resume_skips_completed_specs(self, tmp_path, short_trace, infra):
        specs = _suite()
        store = RunStore(tmp_path / "runs")
        plan = faults.FaultPlan(
            faults=(
                faults.Fault("spec-error", "s1", fail_attempts=faults.ALWAYS),
            )
        )
        with faults.injected(plan):
            first = scenarios.run_suite(
                specs,
                retry=self.RETRY,
                keep_going=True,
                store=store,
                trace=short_trace,
                infra=infra,
            )
        assert [type(o).__name__ for o in first] == [
            "ScenarioRun", "FailedRun", "ScenarioRun",
        ]
        # the two survivors were checkpointed the moment they landed
        assert {s.name for s in store.list()} == {"s0", "s2"}

        # clean resume: only the failed spec re-runs, survivors come back
        # as the stored records
        second = scenarios.run_suite(
            specs, store=store, resume=True, trace=short_trace, infra=infra
        )
        assert isinstance(second[0], ScenarioResult)
        assert isinstance(second[1], scenarios.ScenarioRun)
        assert isinstance(second[2], ScenarioResult)
        assert len(store.list()) == 3

        # resumed records are the same results a clean run would produce
        clean = scenarios.run_suite(specs, trace=short_trace, infra=infra)
        for resumed, fresh in zip(second, clean):
            record = (
                resumed if isinstance(resumed, ScenarioResult)
                else resumed.to_record()
            )
            want = fresh.to_record()
            assert record.total_energy_j == want.total_energy_j
            assert record.per_day_energy_j == want.per_day_energy_j
            assert record.unserved_demand == want.unserved_demand

    def test_corrupt_checkpoint_is_quarantined(self, tmp_path, short_trace, infra):
        specs = _suite()
        store = RunStore(tmp_path / "runs")
        plan = faults.FaultPlan(
            faults=(faults.Fault("corrupt-result", "s1"),)
        )
        with faults.injected(plan):  # torn write on s1's result.json
            scenarios.run_suite(
                specs, store=store, trace=short_trace, infra=infra
            )
        summaries = store.list()
        assert {s.name for s in summaries} == {"s0", "s2"}
        quarantined = store.skipped()
        assert len(quarantined) == 1
        assert isinstance(quarantined[0], QuarantinedRun)
        assert "s1" in quarantined[0].run_id

        # a resumed suite treats the corrupt checkpoint as missing work
        out = scenarios.run_suite(
            specs, store=store, resume=True, trace=short_trace, infra=infra
        )
        assert isinstance(out[1], scenarios.ScenarioRun)
        assert all(o.name == s.name for o, s in zip(out, specs))


# ---------------------------------------------------------------------------
# Trace-read faults
# ---------------------------------------------------------------------------


class TestTraceReadFault:
    def test_wc98_reader_fires_trace_read(self, tmp_path):
        import gzip
        import struct

        from repro.workload.wc98format import read_records

        path = tmp_path / "wc_day1_1.gz"
        with gzip.open(path, "wb") as fh:
            fh.write(struct.pack("<IIIIBBBB", 0, 1, 2, 3, 4, 5, 6, 7))
        assert len(read_records(path)) == 1  # readable without a plan

        plan = faults.FaultPlan(
            faults=(faults.Fault("trace-read", str(path)),)
        )
        with faults.injected(plan):
            with pytest.raises(faults.InjectedFault):
                read_records(path)
