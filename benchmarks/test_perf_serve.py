"""Performance guards for the streaming provisioning engine (PR 10).

Not a paper artifact — these pin the daemon's steady-state costs: the
per-chunk feed path (incremental sliding-max + decision walk over the
bounded tail buffer), the per-decision journal append (the fsync is the
designed cost — it IS the durability guarantee), and a full crash-free
day streamed second by second, plus a multi-day backlog fed at once.
The per-boundary latency is what bounds how fast a live feed can be
followed; a regression here turns a 1 Hz daemon into a backlog machine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bml import design
from repro.core.profiles import table_i_profiles
from repro.serve import DecisionJournal, StreamingProvisioner
from repro.serve.journal import encode_record
from repro.workload.worldcup import WorldCupSynthesizer

WINDOW = 378


@pytest.fixture(scope="module")
def serve_day():
    """One day of World-Cup-shaped load at 1 Hz."""
    trace = WorldCupSynthesizer(n_days=1, seed=321, peak_rate=3000).build()
    return np.asarray(trace.values, dtype=np.float64)


@pytest.fixture(scope="module")
def serve_table():
    return design(table_i_profiles()).table(3100.0)


@pytest.mark.benchmark(group="perf-serve")
def test_perf_serve_steady_state_chunk(benchmark, serve_table, serve_day):
    """Per-poll cost: one 60-sample chunk through a warmed engine.

    The daemon's inner loop at 1 Hz with a 60 s poll; the engine carries
    ``window - 1`` samples of tail state, so this measures the true
    incremental cost, not a whole-trace recompute.
    """
    warm = serve_day[: WINDOW * 4]
    chunk = serve_day[WINDOW * 4 : WINDOW * 4 + 60]

    def run():
        engine = StreamingProvisioner(serve_table, window=WINDOW)
        engine.feed(warm)
        engine.feed(chunk)
        return engine.decisions_out

    benchmark(run)


@pytest.mark.benchmark(group="perf-serve")
def test_perf_serve_per_boundary_latency(benchmark, serve_table, serve_day):
    """Steady-state per-boundary latency: a full day, 60 s chunks.

    Reported time / 1440 chunks = the per-poll budget; the engine must
    stream a day far faster than the day happens.
    """

    def run():
        engine = StreamingProvisioner(serve_table, window=WINDOW)
        total = 0
        for pos in range(0, len(serve_day), 60):
            total += len(engine.feed(serve_day[pos : pos + 60]))
        total += len(engine.finalize())
        return total

    result = benchmark(run)
    assert result > 0  # the day must actually reconfigure


@pytest.fixture(scope="module")
def serve_backlog():
    """Eight days of World-Cup-shaped load at 1 Hz."""
    trace = WorldCupSynthesizer(n_days=8, seed=321, peak_rate=3000).build()
    return np.asarray(trace.values, dtype=np.float64)


@pytest.mark.benchmark(group="perf-serve")
def test_perf_serve_backlog(benchmark, serve_table, serve_backlog):
    """A daemon starting or resuming on a backlog: 8 days in one feed().

    ``TailFileSource.poll`` hands the whole backlog over as one chunk;
    the decision walk jumps through the chunk's change points, so this
    costs about what the same samples cost in 60-sample chunks rather
    than a rescan of the rest of the chunk per decision.
    """

    def run():
        engine = StreamingProvisioner(serve_table, window=WINDOW)
        return engine.feed(serve_backlog)

    decisions = benchmark.pedantic(run, rounds=3, iterations=1)
    chunked = StreamingProvisioner(serve_table, window=WINDOW)
    expected = []
    for pos in range(0, len(serve_backlog), 60):
        expected += chunked.feed(serve_backlog[pos : pos + 60])
    assert decisions and decisions == expected


@pytest.mark.benchmark(group="perf-serve")
def test_perf_serve_sample_by_sample(benchmark, serve_table, serve_day):
    """Worst-case chunking: one sample per feed() call, one hour of it."""
    hour = serve_day[: 3600 + WINDOW]

    def run():
        engine = StreamingProvisioner(serve_table, window=WINDOW)
        for v in hour:
            engine.feed([v])
        return engine.samples_in

    benchmark(run)


@pytest.mark.benchmark(group="perf-serve")
def test_perf_journal_append_fsync(benchmark, tmp_path):
    """Durable append cost — dominated by the fsync, by design."""
    payloads = [
        encode_record({"t": i, "until": i + 200, "on_j": i * 1.5})
        for i in range(64)
    ]
    counter = {"n": 0}

    def run():
        counter["n"] += 1
        path = tmp_path / f"bench-{counter['n']}.bin"
        with DecisionJournal(path) as journal:
            for i, p in enumerate(payloads):
                journal.append(i, p)
        return journal.count

    benchmark(run)
