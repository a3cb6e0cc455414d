"""Suite fan-out over shared-memory traces (PR 8 acceptance tests).

The contract: a suite run over ``jobs>1`` ships each workload's trace
arrays **at most once per host** — one parent build published as a
shared-memory segment, zero worker rebuilds for any workload spanning
several chunks — and replaying from the attached segment is
bit-identical to the in-process replay.  After the suite, no
``/dev/shm`` segment survives.  On a host without a usable ``/dev/shm``
(``share_trace`` raising ``OSError``) the same single build ships by
value instead.

Fork runs are quick-marked; spawn pays interpreter start-up per worker
so it rides only in the full suite.
"""

import glob
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import scenarios
from repro.scenarios import fanout_stats, runner
from repro.workload.trace import SHM_PREFIX, shm_stats

START_METHODS = [
    pytest.param("fork", marks=pytest.mark.quick),
    pytest.param("spawn"),
]


def _skip_unless_available(start_method):
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"platform has no {start_method} start method")


def _shm_entries(pid=None):
    """The segments of process ``pid`` (default: this one); names carry
    the creating process's pid."""
    pid = os.getpid() if pid is None else pid
    return glob.glob(f"/dev/shm/{SHM_PREFIX}{pid}-*")


def _shm_unavailable(trace):
    """``share_trace`` on a host without a usable ``/dev/shm``."""
    raise OSError("no usable /dev/shm")


def _shared_workload_suite(n):
    """``n`` scenarios over ONE workload (the build-once case)."""
    base = scenarios.get("pattern-steady").with_days(1)
    return [
        replace(
            base,
            name=f"shm-{k}",
            scheduler=replace(base.scheduler, window=120 + 60 * k),
        )
        for k in range(n)
    ]


def _distinct_workload_suite(n):
    """``n`` scenarios over ``n`` different workloads (one piece each)."""
    base = scenarios.get("pattern-steady").with_days(1)
    return [
        replace(
            base,
            name=f"solo-{k}",
            workload=replace(base.workload, seed=900 + k),
        )
        for k in range(n)
    ]


def _digest(outcomes):
    return {
        o.name: (
            o.result.power.tobytes(),
            o.result.unserved.tobytes(),
        )
        for o in outcomes
    }


@pytest.mark.parametrize("start_method", START_METHODS)
class TestSharedMemoryFanout:
    def test_shared_workload_builds_once_and_matches_sequential(
        self, start_method
    ):
        _skip_unless_available(start_method)
        specs = _shared_workload_suite(4)
        reference = _digest(scenarios.run_suite(specs, jobs=1))
        scenarios.clear_caches()
        before = fanout_stats()
        out = scenarios.run_suite(
            specs,
            jobs=2,
            start_method=start_method,
            chunk_size=1,  # 4 chunks over 1 workload: the fan-out case
        )
        stats = {k: v - before[k] for k, v in fanout_stats().items()}
        assert _digest(out) == reference  # bit-identical replay
        # the workload was built exactly once, in the dispatcher, and
        # shipped as one segment — never rebuilt by a worker
        assert stats["trace_builds"] == 1
        assert stats["worker_trace_builds"] == 0
        assert stats["segments_shared"] == 1
        assert stats["handles_shipped"] >= 2
        assert stats["bytes_pickle_avoided"] > 0
        # lifecycle: every segment released once the suite returns
        assert shm_stats()["segments_live"] == 0
        assert not _shm_entries()

    def test_single_piece_workloads_stay_worker_built(self, start_method):
        _skip_unless_available(start_method)
        specs = _distinct_workload_suite(2)
        reference = _digest(scenarios.run_suite(specs, jobs=1))
        scenarios.clear_caches()
        before = fanout_stats()
        out = scenarios.run_suite(
            specs, jobs=2, start_method=start_method
        )
        stats = {k: v - before[k] for k, v in fanout_stats().items()}
        assert _digest(out) == reference
        # one chunk per workload: a segment would save nothing, so the
        # build happens in the worker that needs it (overlapping the
        # parent's own work) and no segment is published
        assert stats["segments_shared"] == 0
        assert not _shm_entries()

    def test_without_shm_the_trace_ships_by_value(
        self, start_method, monkeypatch
    ):
        _skip_unless_available(start_method)
        specs = _shared_workload_suite(3)
        reference = _digest(scenarios.run_suite(specs, jobs=1))
        scenarios.clear_caches()
        monkeypatch.setattr(runner, "share_trace", _shm_unavailable)
        before = fanout_stats()
        out = scenarios.run_suite(
            specs, jobs=2, start_method=start_method, chunk_size=1
        )
        stats = {k: v - before[k] for k, v in fanout_stats().items()}
        assert _digest(out) == reference
        # still one build, in the dispatcher: the trace rides each
        # payload by value instead of as a segment handle
        assert stats["trace_builds"] == 1
        assert stats["worker_trace_builds"] == 0
        assert stats["segments_shared"] == stats["handles_shipped"] == 0
        assert stats["bytes_shipped"] > 0
        assert not _shm_entries()


def test_without_shm_a_trace_override_ships_through_initargs(monkeypatch):
    """Spawned workers get a ``trace=`` override pickled per worker."""
    _skip_unless_available("spawn")
    specs = _shared_workload_suite(3)
    trace = specs[0].workload.build()
    reference = _digest(scenarios.run_suite(specs, jobs=1, trace=trace))
    monkeypatch.setattr(runner, "share_trace", _shm_unavailable)
    before = fanout_stats()
    out = scenarios.run_suite(
        specs, jobs=2, trace=trace, start_method="spawn", chunk_size=1
    )
    stats = {k: v - before[k] for k, v in fanout_stats().items()}
    assert _digest(out) == reference
    assert stats["worker_trace_builds"] == 0
    assert stats["segments_shared"] == stats["handles_shipped"] == 0
    assert stats["bytes_shipped"] == 2 * trace.values.nbytes
    assert not _shm_entries()


#: A fork suite in a fresh interpreter: one workload over four chunks
#: (so a segment is published and attached), and one worker crash.
_TRACKER_CHILD = """
import os
from dataclasses import replace
from repro import faults, scenarios

base = scenarios.get("pattern-steady").with_days(1)
specs = [
    replace(base, name=f"shm-{k}",
            scheduler=replace(base.scheduler, window=120 + 60 * k))
    for k in range(4)
]
plan = faults.FaultPlan(
    faults=(faults.Fault("worker-crash", "shm-1", fail_attempts=faults.ALWAYS),)
)
with faults.injected(plan):
    out = scenarios.run_suite(
        specs, jobs=2, start_method="fork", chunk_size=1, keep_going=True
    )
print(os.getpid(), " ".join(type(o).__name__ for o in out))
"""


@pytest.mark.quick
def test_fork_workers_share_the_resource_tracker():
    """Fork workers must register attached segments with the
    dispatcher's resource tracker: a tracker of their own unlinks a
    still-live segment when its worker dies, and warns at exit."""
    _skip_unless_available("fork")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _TRACKER_CHILD],
        cwd=Path(__file__).resolve().parents[1],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    pid, *outcomes = proc.stdout.split()
    assert outcomes == [
        "ScenarioRun", "FailedRun", "ScenarioRun", "ScenarioRun",
    ]
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert not _shm_entries(pid)


@pytest.mark.quick
class TestChunkSizeValidation:
    def test_chunk_size_must_be_positive(self):
        specs = _shared_workload_suite(2)
        with pytest.raises(scenarios.ScenarioError, match="chunk_size"):
            scenarios.run_suite(specs, jobs=2, chunk_size=0)

    def test_chunk_size_caps_piece_sizes(self):
        specs = _shared_workload_suite(5)
        chunks = scenarios.chunk_specs(specs, 2, 2)
        assert all(len(c) <= 2 for c in chunks)
        # every spec index appears exactly once across the pieces
        assert sorted(i for c in chunks for i in c) == list(range(5))
