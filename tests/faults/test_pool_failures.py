"""Suite fault tolerance: crash, hang, retry, resume — fork and spawn.

These tests drive the dispatcher behind ``run_suite(jobs>1)`` — owned
worker processes, each on its own pipe and replying once per spec —
through its recovery paths with real injected process failures:
workers killed mid-chunk (``os._exit``), workers hung past the chunk
deadline, and transient in-spec exceptions.  The acceptance contract:
exactly the poisoned specs fail, survivors are bit-identical to a
clean sequential run, and a resumed suite re-runs only the failures.
Blame is exact inside a chunk too: a chunk-mate that finished before
the fault keeps its result.

Fork runs are quick-marked; spawn runs pay interpreter start-up per
worker (and per replacement worker) so they ride only in the full suite.
"""

import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from repro import faults, scenarios
from repro.results import RunStore, ScenarioResult
from repro.scenarios import FailedRun, RetryPolicy, SuiteExecutionError

START_METHODS = [
    pytest.param("fork", marks=pytest.mark.quick),
    pytest.param("spawn"),
]

#: Deadlines generous enough for a clean 2 h-trace scenario (spawn pays
#: worker start-up inside the chunk deadline), tight enough that a hung
#: worker trips them fast.
TIMEOUT_S = {"fork": 3.0, "spawn": 12.0}


def _skip_unless_available(start_method):
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"platform has no {start_method} start method")


def _suite(n, days=1):
    base = scenarios.get("pattern-steady").with_days(days)
    return [
        replace(base, name=f"s{k}", workload=replace(base.workload, seed=70 + k))
        for k in range(n)
    ]


def _assert_matches_clean(outcomes, specs, short_trace, infra):
    """Every surviving outcome equals the clean sequential run's."""
    clean = scenarios.run_suite(specs, jobs=1, trace=short_trace, infra=infra)
    for outcome, reference in zip(outcomes, clean):
        if isinstance(outcome, FailedRun):
            continue
        assert outcome.name == reference.name
        if isinstance(outcome, ScenarioResult):  # resumed checkpoint
            want = reference.to_record()
            assert outcome.total_energy_j == want.total_energy_j
            assert outcome.per_day_energy_j == want.per_day_energy_j
        else:
            assert np.array_equal(
                outcome.result.power, reference.result.power
            )
            assert np.array_equal(
                outcome.result.unserved, reference.result.unserved
            )


@pytest.mark.parametrize("start_method", START_METHODS)
class TestWorkerCrash:
    def test_crash_charges_only_the_culprit(
        self, start_method, short_trace, infra
    ):
        _skip_unless_available(start_method)
        specs = _suite(4)
        plan = faults.FaultPlan(
            faults=(
                faults.Fault(
                    "worker-crash", "s0", fail_attempts=faults.ALWAYS
                ),
            )
        )
        with faults.injected(plan):
            out = scenarios.run_suite(
                specs,
                jobs=2,
                start_method=start_method,
                keep_going=True,
                retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
                trace=short_trace,
                infra=infra,
            )
        failed = [o for o in out if isinstance(o, FailedRun)]
        assert [f.name for f in failed] == ["s0"]
        assert failed[0].error_type == "WorkerCrashed"
        assert failed[0].attempts == 2
        _assert_matches_clean(out, specs, short_trace, infra)

    def test_crash_without_keep_going_raises(
        self, start_method, short_trace, infra
    ):
        _skip_unless_available(start_method)
        specs = _suite(2)
        plan = faults.FaultPlan(
            faults=(
                faults.Fault(
                    "worker-crash", "s1", fail_attempts=faults.ALWAYS
                ),
            )
        )
        with faults.injected(plan):
            with pytest.raises(SuiteExecutionError) as err:
                scenarios.run_suite(
                    specs,
                    jobs=2,
                    start_method=start_method,
                    retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
                    trace=short_trace,
                    infra=infra,
                )
        assert [f.name for f in err.value.failures] == ["s1"]
        assert err.value.failures[0].error_type == "WorkerCrashed"


def _one_workload_suite(n):
    """``n`` scenarios over one workload: default chunking pairs them."""
    base = scenarios.get("pattern-steady").with_days(1)
    return [
        replace(
            base,
            name=f"s{k}",
            scheduler=replace(base.scheduler, window=120 + 60 * k),
        )
        for k in range(n)
    ]


@pytest.mark.parametrize("start_method", START_METHODS)
@pytest.mark.parametrize(
    "site, error_type",
    [("worker-crash", "WorkerCrashed"), ("worker-hang", "ChunkTimeout")],
)
class TestExactBlame:
    def test_finished_chunk_mate_keeps_its_result(
        self, start_method, site, error_type, short_trace, infra
    ):
        """A crash or hang on the second spec of a two-spec chunk fails
        that spec alone: the first already finished and keeps its
        result, even with a single attempt per spec."""
        _skip_unless_available(start_method)
        specs = _one_workload_suite(4)
        assert scenarios.chunk_specs(specs, 2) == [[0, 1], [2, 3]]
        fault = faults.Fault(
            site, "s1", fail_attempts=faults.ALWAYS, hang_s=120.0
        )
        hang = site == "worker-hang"
        with faults.injected(faults.FaultPlan(faults=(fault,))):
            out = scenarios.run_suite(
                specs,
                jobs=2,
                start_method=start_method,
                keep_going=True,
                retry=RetryPolicy(
                    max_attempts=1,
                    timeout_s=TIMEOUT_S[start_method] if hang else None,
                ),
                trace=short_trace,
                infra=infra,
            )
        failed = [o for o in out if isinstance(o, FailedRun)]
        assert [f.name for f in failed] == ["s1"]
        assert failed[0].error_type == error_type
        assert failed[0].attempts == 1
        assert isinstance(out[0], scenarios.ScenarioRun)
        _assert_matches_clean(out, specs, short_trace, infra)


@pytest.mark.parametrize("start_method", START_METHODS)
class TestWorkerHang:
    def test_hang_past_deadline_times_out(
        self, start_method, short_trace, infra
    ):
        _skip_unless_available(start_method)
        specs = _suite(3)
        plan = faults.FaultPlan(
            faults=(
                faults.Fault(
                    "worker-hang",
                    "s1",
                    fail_attempts=faults.ALWAYS,
                    hang_s=120.0,
                ),
            )
        )
        with faults.injected(plan):
            out = scenarios.run_suite(
                specs,
                jobs=2,
                start_method=start_method,
                keep_going=True,
                retry=RetryPolicy(
                    max_attempts=2,
                    timeout_s=TIMEOUT_S[start_method],
                    backoff_s=0.0,
                ),
                trace=short_trace,
                infra=infra,
            )
        failed = [o for o in out if isinstance(o, FailedRun)]
        assert [f.name for f in failed] == ["s1"]
        assert failed[0].error_type == "ChunkTimeout"
        assert "deadline" in failed[0].message
        _assert_matches_clean(out, specs, short_trace, infra)


@pytest.mark.parametrize("start_method", START_METHODS)
class TestRetryRecovers:
    def test_transient_error_succeeds_on_retry(
        self, start_method, short_trace, infra
    ):
        _skip_unless_available(start_method)
        specs = _suite(4)
        plan = faults.FaultPlan(
            faults=(
                faults.Fault("spec-error", "s1", fail_attempts=1),
                faults.Fault("spec-error", "s3", fail_attempts=1),
            )
        )
        with faults.injected(plan):
            out = scenarios.run_suite(
                specs,
                jobs=2,
                start_method=start_method,
                keep_going=True,
                retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
                trace=short_trace,
                infra=infra,
            )
        assert not [o for o in out if isinstance(o, FailedRun)]
        assert [o.name for o in out] == [s.name for s in specs]
        _assert_matches_clean(out, specs, short_trace, infra)


@pytest.mark.parametrize("start_method", START_METHODS)
class TestResume:
    def test_resume_reruns_only_failures(
        self, start_method, tmp_path, short_trace, infra
    ):
        _skip_unless_available(start_method)
        specs = _suite(4)
        store = RunStore(tmp_path / "runs")
        plan = faults.FaultPlan(
            faults=(
                faults.Fault(
                    "worker-crash", "s2", fail_attempts=faults.ALWAYS
                ),
            )
        )
        with faults.injected(plan):
            first = scenarios.run_suite(
                specs,
                jobs=2,
                start_method=start_method,
                keep_going=True,
                retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
                store=store,
                trace=short_trace,
                infra=infra,
            )
        assert [f.name for f in first if isinstance(f, FailedRun)] == ["s2"]
        assert {s.name for s in store.list()} == {"s0", "s1", "s3"}

        # fault cleared: the resumed suite re-runs exactly the failure
        second = scenarios.run_suite(
            specs,
            jobs=2,
            start_method=start_method,
            store=store,
            resume=True,
            trace=short_trace,
            infra=infra,
        )
        assert [type(o).__name__ for o in second] == [
            "ScenarioResult", "ScenarioResult", "ScenarioRun", "ScenarioResult",
        ]
        assert len(store.list()) == 4
        _assert_matches_clean(second, specs, short_trace, infra)


@pytest.mark.parametrize("start_method", START_METHODS)
class TestAcceptanceScenario:
    """The ISSUE PR 7 acceptance run: a seeded plan injecting a worker
    crash, a hang past the deadline and one transient exception into a
    10-spec suite."""

    def test_end_to_end(self, start_method, tmp_path, short_trace, infra):
        _skip_unless_available(start_method)
        specs = _suite(10)
        store = RunStore(tmp_path / "runs")
        plan = faults.FaultPlan(
            faults=(
                faults.Fault(
                    "worker-crash", "s2", fail_attempts=faults.ALWAYS
                ),
                faults.Fault(
                    "worker-hang",
                    "s5",
                    fail_attempts=faults.ALWAYS,
                    hang_s=120.0,
                ),
                faults.Fault("spec-error", "s7", fail_attempts=1),
            ),
            seed=1234,
        )
        with faults.injected(plan):
            out = scenarios.run_suite(
                specs,
                jobs=2,
                start_method=start_method,
                keep_going=True,
                retry=RetryPolicy(
                    max_attempts=2,
                    timeout_s=TIMEOUT_S[start_method],
                    backoff_s=0.0,
                ),
                store=store,
                trace=short_trace,
                infra=infra,
            )

        # exactly the poisoned specs fail; the transient recovered
        failed = {o.name: o for o in out if isinstance(o, FailedRun)}
        assert set(failed) == {"s2", "s5"}
        assert failed["s2"].error_type == "WorkerCrashed"
        assert failed["s5"].error_type == "ChunkTimeout"
        assert isinstance(out[7], scenarios.ScenarioRun)  # retried, succeeded

        # failures surface in the report; survivors aggregate normally
        from repro.results import SuiteReport

        report = SuiteReport.from_runs(out)
        assert len(report.results) == 8
        assert {f.name for f in report.failures} == {"s2", "s5"}

        # survivors are bit-identical to a clean sequential run
        _assert_matches_clean(out, specs, short_trace, infra)
        assert {s.name for s in store.list()} == {
            s.name for s in specs
        } - {"s2", "s5"}

        # faults cleared: resume re-runs exactly the two failures
        second = scenarios.run_suite(
            specs,
            jobs=2,
            start_method=start_method,
            store=store,
            resume=True,
            trace=short_trace,
            infra=infra,
        )
        assert not [o for o in second if isinstance(o, FailedRun)]
        fresh = [o for o in second if isinstance(o, scenarios.ScenarioRun)]
        assert {o.name for o in fresh} == {"s2", "s5"}
        assert len(store.list()) == 10
        _assert_matches_clean(second, specs, short_trace, infra)
