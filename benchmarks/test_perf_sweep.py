"""Fleet-scale sweep benchmark: shared-memory vs worker-rebuild fan-out.

The PR 8 acceptance scenario: a 256-point parametric sweep — four
archive-format WC98 day files crossed with 64 scheduler windows — run on
a spawn pool.  The shared-memory dispatcher builds each workload's trace
once in the parent and publishes it as a ``/dev/shm`` segment that every
worker attaches zero-copy.  The contrast is the distribution that came
before it: the program's own chunk runner fed the same chunks with
nothing pre-built, over a plain spawn pool, so each worker rebuilds
whatever workloads its chunks happen to touch (up to
``jobs × workloads`` archive parses).  The shm/legacy ratio in the
benchmark JSON is the measured win, and the legacy benchmark *asserts*
the acceptance floor: shared memory must be at least 1.5x faster.

The dispatcher's own no-``/dev/shm`` fallback is not the contrast: it
still builds each trace once in the parent and pickles it into every
payload, which ran within the shared-memory path's spread.

The archive fixture synthesises one WC98 day, writes it in the
original 20-byte binary record format (gzipped, ~4M requests) and
copies it to four paths — four distinct workloads with identical,
deliberately non-trivial parse cost (~0.7 s each).
"""

import glob as globmod
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro import scenarios
from repro.scenarios import SweepSpec, fanout_stats, runner
from repro.workload.trace import SHM_PREFIX, shm_stats
from repro.workload.wc98format import write_records
from repro.workload.worldcup import WorldCupSynthesizer

JOBS = 4
CHUNK_SIZE = 8
ROUNDS = 2
WORKLOADS = 4
WINDOWS = tuple(120 + 30 * k for k in range(64))

#: Wall-clock per mode, filled by the benchmarks in definition order so
#: the legacy run can assert the acceptance ratio against the shm run.
_WALL = {}


@pytest.fixture(scope="module")
def sweep_specs(tmp_path_factory):
    """The 256-point grid over four archive-backed day workloads."""
    root = tmp_path_factory.mktemp("wc98-sweep")
    day = WorldCupSynthesizer(n_days=1, seed=98, peak_rate=150).build()
    counts = day.values.astype(np.int64)
    timestamps = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    first = root / "day0.log.gz"
    write_records(first, timestamps)
    paths = [first]
    for i in range(1, WORKLOADS):
        copy = root / f"day{i}.log.gz"
        copy.write_bytes(first.read_bytes())
        paths.append(copy)

    sweep = SweepSpec(
        name="bench-fleet",
        base="wc98-archive-bml",
        description="4 WC98 archive days x 64 scheduler windows",
        axes=(
            ("path", tuple(str(p) for p in paths)),
            ("days", (1,)),
            ("window", WINDOWS),
        ),
    )
    specs = sweep.expand()
    assert len(specs) == WORKLOADS * len(WINDOWS) == 256
    return specs


def _cold_caches(specs):
    """Cold-start setup (untimed): every round re-parses the archives."""
    scenarios.clear_caches()
    return (specs,), {}


def _timed_suite(specs):
    t0 = time.perf_counter()
    runs = scenarios.run_suite(
        specs, jobs=JOBS, start_method="spawn", chunk_size=CHUNK_SIZE
    )
    _WALL.setdefault("shm", []).append(time.perf_counter() - t0)
    return runs


def _timed_worker_rebuild(specs):
    """The same chunks through ``_run_chunk_guarded`` with an empty
    pre-built dict: every worker builds the workloads its chunks touch.
    Returns the runs in input order and the worker-side build count."""
    t0 = time.perf_counter()
    payloads = [
        ([(i, specs[i]) for i in chunk], {}, 0)
        for chunk in scenarios.chunk_specs(specs, JOBS, CHUNK_SIZE)
    ]
    runs = [None] * len(specs)
    builds = 0
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        for results, stats in pool.imap_unordered(
            runner._run_chunk_guarded, payloads
        ):
            builds += stats["trace_builds"]
            for i, (status, run) in results:
                assert status == "ok", run
                runs[i] = run
    _WALL.setdefault("legacy", []).append(time.perf_counter() - t0)
    return runs, builds


@pytest.mark.benchmark(group="perf-sweep")
def test_perf_sweep_shared_memory(benchmark, sweep_specs):
    """PR 8 fan-out: one parent build per workload, segments for all.

    Telemetry must show each workload's trace arrays travelling at most
    once per host: zero worker-side rebuilds, exactly one segment per
    workload per round, and no segment surviving the suite.
    """
    before = fanout_stats()
    runs = benchmark.pedantic(
        _timed_suite,
        setup=lambda: _cold_caches(sweep_specs),
        rounds=ROUNDS,
        iterations=1,
    )
    stats = {k: v - before[k] for k, v in fanout_stats().items()}
    assert [r.name for r in runs] == [s.name for s in sweep_specs]
    assert stats["worker_trace_builds"] == 0
    assert stats["trace_builds"] == WORKLOADS * ROUNDS
    assert stats["segments_shared"] == WORKLOADS * ROUNDS
    assert stats["bytes_pickle_avoided"] > 0
    assert shm_stats()["segments_live"] == 0
    assert not globmod.glob(f"/dev/shm/{SHM_PREFIX}{os.getpid()}-*")


@pytest.mark.benchmark(group="perf-sweep")
def test_perf_sweep_by_value(benchmark, sweep_specs):
    """The worker-rebuild distribution shared memory replaced, as the
    reference — and the acceptance gate: shared memory must beat it by
    >= 1.5x."""
    runs, builds = benchmark.pedantic(
        _timed_worker_rebuild,
        setup=lambda: _cold_caches(sweep_specs),
        rounds=ROUNDS,
        iterations=1,
    )
    assert [r.name for r in runs] == [s.name for s in sweep_specs]
    assert builds >= WORKLOADS  # workers built every trace themselves
    if "shm" in _WALL:  # skipped only if the shm benchmark was deselected
        shm = min(_WALL["shm"])
        legacy = min(_WALL["legacy"])
        ratio = legacy / shm
        print(f"\nperf-sweep: shm {shm:.2f}s vs worker-rebuild "
              f"{legacy:.2f}s ({ratio:.2f}x)")
        assert ratio >= 1.5, (
            f"shared-memory sweep only {ratio:.2f}x faster than the "
            f"worker-rebuild path (acceptance floor: 1.5x)"
        )
