"""Performance guards for the streaming provisioning engine (PR 10).

Not a paper artifact — these pin the daemon's steady-state costs: the
per-chunk feed path (incremental sliding-max + decision walk over the
bounded tail buffer), the per-decision journal append (the fsync is the
designed cost — it IS the durability guarantee), and a full crash-free
day streamed second by second, plus a multi-day backlog fed at once.
The per-boundary latency is what bounds how fast a live feed can be
followed; a regression here turns a 1 Hz daemon into a backlog machine.
Two more time the daemon's own poll path: the feed parser over a
backlog, and a whole day through ``ServeDaemon`` with its journal,
checkpoints and health heartbeat.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bml import design
from repro.core.profiles import table_i_profiles
from repro.serve import (
    DecisionJournal,
    ServeConfig,
    ServeDaemon,
    StreamingProvisioner,
    TailFileSource,
    append_feed,
)
from repro.serve.daemon import JOURNAL_FILE
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
def test_perf_serve_tail_backlog(benchmark, tmp_path, serve_backlog):
    """A daemon resuming on a backlog: one ``TailFileSource.poll`` parses
    8 days of feed lines (691 200 records)."""
    feed = tmp_path / "feed.txt"
    append_feed(feed, serve_backlog)

    def fresh():
        return (TailFileSource(feed),), {}

    chunk = benchmark.pedantic(TailFileSource.poll, setup=fresh, rounds=3)
    assert chunk.samples == [float(f"{v:.6f}") for v in serve_backlog]
    assert not chunk.rejected and not chunk.finished


class _ClosedLoop:
    """Appends the next 60-sample chunk (then ``END``) before each poll."""

    def __init__(self, feed, values):
        self.inner = TailFileSource(feed)
        self.feed = feed
        self.chunks = iter(
            [values[i : i + 60] for i in range(0, len(values), 60)]
        )
        self.ended = False

    def state(self):
        return self.inner.state()

    def poll(self):
        chunk = next(self.chunks, None)
        if chunk is not None:
            append_feed(self.feed, chunk)
        elif not self.ended:
            append_feed(self.feed, [], end=True)
            self.ended = True
        return self.inner.poll()


@pytest.mark.benchmark(group="perf-serve")
def test_perf_serve_daemon_day(benchmark, tmp_path, serve_table, serve_day):
    """One day through the daemon, a 60-sample chunk per poll: parse,
    decide, journal (fsync'd), checkpoint, health heartbeat."""
    daemons = []

    def fresh():
        run = tmp_path / f"run-{len(daemons)}"
        config = ServeConfig(
            feed=run / "feed.txt", state_dir=run / "state", max_rate=3100.0
        )
        source = _ClosedLoop(config.feed, serve_day)
        daemons.append(ServeDaemon(config, table=serve_table, source=source))
        return (daemons[-1],), {}

    assert benchmark.pedantic(ServeDaemon.run, setup=fresh, rounds=3) == "done"
    daemon = daemons[-1]
    engine = StreamingProvisioner(serve_table, window=daemon.config.window)
    batch = [d.to_payload() for d in engine.feed(serve_day) + engine.finalize()]
    with DecisionJournal(daemon.state_dir / JOURNAL_FILE) as journal:
        assert journal.payloads() == batch
    assert daemon.rejected == 0 and daemon.engine.samples_in == len(serve_day)


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
