"""Shared-memory segments must survive faults without leaking (PR 8).

The dispatcher owns every published trace segment.  Workers crashing
mid-chunk (taking their attachments with them), workers hanging past
the chunk deadline (killed and replaced underneath live segments) —
none of it may leave a ``repro-trace-<pid>-*`` entry of this process in
``/dev/shm``, or a live worker process, once ``run_suite`` returns:
retried chunks re-ship the *same* segment, and the dispatcher's
``finally`` releases everything after the last worker is reaped.  The
check sees only this process's segments, so suites running at the same
time on one host do not fail each other.
"""

import glob
import multiprocessing
import os
from dataclasses import replace
from multiprocessing import shared_memory

import pytest

from repro import faults, scenarios
from repro.scenarios import FailedRun, RetryPolicy
from repro.workload.trace import SHM_PREFIX, shm_stats

START_METHODS = [
    pytest.param("fork", marks=pytest.mark.quick),
    pytest.param("spawn"),
]

TIMEOUT_S = {"fork": 3.0, "spawn": 12.0}


def _skip_unless_available(start_method):
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"platform has no {start_method} start method")


def _shm_entries():
    """This process's segments: names carry the creating process's pid."""
    return glob.glob(f"/dev/shm/{SHM_PREFIX}{os.getpid()}-*")


def _suite(n):
    """``n`` scenarios over one workload so a segment is published."""
    base = scenarios.get("pattern-steady").with_days(1)
    return [
        replace(
            base,
            name=f"s{k}",
            scheduler=replace(base.scheduler, window=120 + 60 * k),
        )
        for k in range(n)
    ]


def _assert_no_leak():
    assert not multiprocessing.active_children()
    assert shm_stats()["segments_live"] == 0
    leaked = _shm_entries()
    assert not leaked, f"leaked shared-memory segments: {leaked}"


@pytest.mark.quick
def test_leak_check_ignores_other_processes_segments():
    """A live segment of another process (another suite on the same
    host) is not this process's leak."""
    other = shared_memory.SharedMemory(
        name=f"{SHM_PREFIX}999999999-0", create=True, size=8
    )
    try:
        _assert_no_leak()
    finally:
        other.close()
        other.unlink()


@pytest.mark.parametrize("start_method", START_METHODS)
class TestShmCleanupUnderFaults:
    def test_worker_crash_leaves_no_segment(self, start_method):
        _skip_unless_available(start_method)
        specs = _suite(4)
        plan = faults.FaultPlan(
            faults=(
                faults.Fault(
                    "worker-crash", "s0", fail_attempts=faults.ALWAYS
                ),
            )
        )
        scenarios.clear_caches()
        with faults.injected(plan):
            out = scenarios.run_suite(
                specs,
                jobs=2,
                start_method=start_method,
                chunk_size=1,
                keep_going=True,
                retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
            )
        assert [o.name for o in out if isinstance(o, FailedRun)] == ["s0"]
        _assert_no_leak()

    def test_worker_hang_leaves_no_segment(self, start_method):
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
        scenarios.clear_caches()
        with faults.injected(plan):
            out = scenarios.run_suite(
                specs,
                jobs=2,
                start_method=start_method,
                chunk_size=1,
                keep_going=True,
                retry=RetryPolicy(
                    max_attempts=2,
                    timeout_s=TIMEOUT_S[start_method],
                    backoff_s=0.0,
                ),
            )
        assert [o.name for o in out if isinstance(o, FailedRun)] == ["s1"]
        _assert_no_leak()

    def test_survivors_match_sequential_despite_crash(self, start_method):
        _skip_unless_available(start_method)
        specs = _suite(4)
        clean = {
            o.name: o.result.power.tobytes()
            for o in scenarios.run_suite(specs, jobs=1)
        }
        plan = faults.FaultPlan(
            faults=(
                faults.Fault(
                    "worker-crash", "s2", fail_attempts=faults.ALWAYS
                ),
            )
        )
        scenarios.clear_caches()
        with faults.injected(plan):
            out = scenarios.run_suite(
                specs,
                jobs=2,
                start_method=start_method,
                chunk_size=1,
                keep_going=True,
                retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
            )
        for o in out:
            if not isinstance(o, FailedRun):
                assert o.result.power.tobytes() == clean[o.name]
        _assert_no_leak()
