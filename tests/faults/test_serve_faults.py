"""Streaming fault sites + suite graceful shutdown.

The four serve-side sites (``feed-stall``, ``feed-torn-write``,
``serve-crash``, ``journal-corrupt``) each get their recovery path
exercised: stalls degrade and recover without exiting, torn producer
writes become typed rejections, a ``kill -9``-equivalent crash resumes
to a byte-identical journal, and journal rot is either repaired (torn
tail) or quarantined (acknowledged records).  The suite half covers
``run_suite``'s SIGTERM/SIGINT handling: completed scenarios are flushed
to the store and ``resume=True`` finishes the rest.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro import faults, scenarios
from repro.results import RunStore
from repro.serve import (
    DecisionJournal,
    JournalCorruptError,
    MemorySource,
    ServeConfig,
    ServeDaemon,
    TailFileSource,
    append_feed,
    read_health,
)
from repro.serve.daemon import JOURNAL_FILE

from serve_testlib import WINDOW

pytestmark = pytest.mark.quick


@pytest.fixture(scope="module")
def serve_table(infra):
    return infra.table(3000.0)


def _config(tmp_path, **kw):
    kw.setdefault("feed", tmp_path / "feed.txt")
    kw.setdefault("state_dir", tmp_path / "state")
    kw.setdefault("window", WINDOW)
    kw.setdefault("max_rate", 3000.0)
    kw.setdefault("poll_s", 0.001)
    kw.setdefault("stall_timeout_s", 30.0)
    return ServeConfig(**kw)


class TestFeedStall:
    def test_stall_degrades_and_recovers_without_exit(
        self, tmp_path, serve_table
    ):
        # The first 30 polls yield nothing (the fault eats them), which
        # crosses the stall timeout; the feed then resumes and finishes.
        config = _config(tmp_path, stall_timeout_s=0.005, poll_s=0.001)
        plan = faults.FaultPlan(
            faults=(faults.Fault("feed-stall", "serve", fail_attempts=30),)
        )
        source = MemorySource([[100.0] * WINDOW * 2])
        daemon = ServeDaemon(config, table=serve_table, source=source)
        with faults.injected(plan):
            assert daemon.run() == "done"
        health = read_health(config.state_dir)
        assert health["status"] == "done"
        events = " ".join(health["events"])
        assert "stalled" in events and "resumed after stall" in events

    def test_stall_holds_last_plan(self, tmp_path, serve_table):
        config = _config(tmp_path, stall_timeout_s=0.005, poll_s=0.001)
        plan = faults.FaultPlan(
            faults=(faults.Fault("feed-stall", "serve", fail_attempts=1000),)
        )
        daemon = ServeDaemon(
            config, table=serve_table, source=MemorySource([[100.0] * WINDOW])
        )
        with faults.injected(plan):
            # Budget-bounded: the stalled daemon keeps polling, holding
            # its (empty) plan instead of exiting.
            assert daemon.run(max_polls=40) == "stopped"
        assert read_health(config.state_dir)["status"] == "stopped"
        assert any(
            "stalled" in e for e in read_health(config.state_dir)["events"]
        )


class TestFeedTornWrite:
    def test_torn_producer_write_waits_then_rejects_typed(
        self, tmp_path, serve_table
    ):
        feed = tmp_path / "feed.txt"
        plan = faults.FaultPlan(
            faults=(faults.Fault("feed-torn-write", str(feed), fail_attempts=1),)
        )
        with faults.injected(plan):
            append_feed(feed, [100.0, 200.0])  # final record torn in half
        src = TailFileSource(feed)
        chunk = src.poll()
        # The torn record has no newline: the reader waits, no rejection.
        assert chunk.samples == [100.0] and not chunk.rejected
        # The recovered producer appends again: the torn fragment fuses
        # with the next record into one malformed line -> typed reject.
        append_feed(feed, [300.0], end=True)
        chunk = src.poll()
        assert chunk.finished
        assert len(chunk.rejected) == 1
        assert "malformed feed record" in str(chunk.rejected[0])

    def test_daemon_survives_torn_write(self, tmp_path, serve_table):
        config = _config(tmp_path)
        plan = faults.FaultPlan(
            faults=(
                faults.Fault(
                    "feed-torn-write", str(config.feed), fail_attempts=1
                ),
            )
        )
        with faults.injected(plan):
            append_feed(config.feed, [100.0] * WINDOW)
        append_feed(config.feed, [100.0] * WINDOW, end=True)
        daemon = ServeDaemon(config, table=serve_table)
        assert daemon.run() == "done"
        assert daemon.rejected == 1
        health = read_health(config.state_dir)
        assert health["rejected"] == 1
        assert any("rejected" in e for e in health["events"])


_CRASH_CHILD = """
import sys
from pathlib import Path
from repro import faults
from repro.serve import ServeConfig, ServeDaemon

tmp = Path(sys.argv[1])
config = ServeConfig(
    feed=tmp / "feed.txt", state_dir=tmp / "state", window={window},
    max_rate=3000.0, poll_s=0.001,
)
plan = faults.FaultPlan(
    faults=(faults.Fault("serve-crash", "serve", fail_attempts=1),)
)
with faults.injected(plan):
    ServeDaemon(config).run()
print("not reached: the crash fault must fire")
sys.exit(99)
""".format(window=WINDOW)


class TestServeCrash:
    def test_crash_then_resume_is_byte_identical(self, tmp_path, serve_table):
        feed = tmp_path / "feed.txt"
        values = [100.0] * WINDOW + [900.0] * WINDOW + [100.0] * WINDOW * 5
        append_feed(feed, values, end=True)

        # Ground truth: the same feed, no crash, separate state dir.
        clean = ServeConfig(
            feed=feed, state_dir=tmp_path / "clean", window=WINDOW,
            max_rate=3000.0, poll_s=0.001,
        )
        assert ServeDaemon(clean, table=serve_table).run() == "done"
        clean_bytes = (clean.state_dir / JOURNAL_FILE).read_bytes()
        assert clean_bytes  # the ramp must generate decisions

        # Generation 0 dies mid-commit: journaled but not checkpointed.
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _CRASH_CHILD, str(tmp_path)],
            cwd=Path(__file__).resolve().parents[2],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 17, proc.stderr  # faults.fire exit code
        crashed = (tmp_path / "state" / JOURNAL_FILE).read_bytes()
        assert crashed  # the crash happened *after* the fsync'd append

        # --resume replays through the journaled prefix (verify, no
        # rewrite) and finishes: byte-identical to the clean run.
        config = ServeConfig(
            feed=feed, state_dir=tmp_path / "state", window=WINDOW,
            max_rate=3000.0, poll_s=0.001,
        )
        daemon = ServeDaemon(config, resume=True, table=serve_table)
        assert daemon.generation == 1
        assert daemon.run() == "done"
        assert (tmp_path / "state" / JOURNAL_FILE).read_bytes() == clean_bytes
        assert read_health(config.state_dir)["status"] == "done"


class TestJournalCorrupt:
    def _journal_with_fault(self, path, n, corrupt_at):
        plan = faults.FaultPlan(
            faults=(
                faults.Fault(
                    "journal-corrupt", str(path), fail_attempts=corrupt_at + 1
                ),
            )
        )
        from repro.serve.journal import encode_record

        payloads = [encode_record({"i": i}) for i in range(n)]
        with DecisionJournal(path) as j:
            for i, p in enumerate(payloads):
                if i == corrupt_at:
                    with faults.injected(plan):
                        j.append(i, p)
                else:
                    j.append(i, p)
        return payloads

    def test_rot_on_final_record_truncates_on_reopen(self, tmp_path):
        path = tmp_path / "j.bin"
        self._journal_with_fault(path, n=3, corrupt_at=2)
        with DecisionJournal(path) as j:
            assert j.count == 2  # the rotten tail record was dropped

    def test_rot_behind_acknowledged_records_quarantines(self, tmp_path):
        path = tmp_path / "j.bin"
        self._journal_with_fault(path, n=3, corrupt_at=1)
        with pytest.raises(JournalCorruptError) as exc:
            DecisionJournal(path)
        assert exc.value.index == 1
        assert path.exists()  # evidence preserved


# ---------------------------------------------------------------------------
# run_suite graceful shutdown (SIGTERM/SIGINT)
# ---------------------------------------------------------------------------


def _suite(n=3, days=1):
    base = scenarios.get("pattern-steady").with_days(days)
    return [
        replace(base, name=f"s{k}", workload=replace(base.workload, seed=40 + k))
        for k in range(n)
    ]


class TestSuiteGracefulShutdown:
    RETRY = scenarios.RetryPolicy(max_attempts=1)

    def test_sequential_sigterm_flushes_completed(
        self, tmp_path, short_trace, infra, monkeypatch
    ):
        from repro.scenarios import runner

        store = RunStore(tmp_path)
        specs = _suite(3)
        real = runner.run_scenario
        calls = []

        def run_then_sigterm(spec, **kw):
            calls.append(spec.name)
            out = real(spec, **kw)
            if len(calls) == 1:
                signal.raise_signal(signal.SIGTERM)
            return out

        monkeypatch.setattr(runner, "run_scenario", run_then_sigterm)
        with pytest.raises(scenarios.SuiteInterrupted) as exc:
            scenarios.run_suite(
                specs,
                retry=self.RETRY,
                store=store,
                trace=short_trace,
                infra=infra,
            )
        assert exc.value.signum == signal.SIGTERM
        assert exc.value.completed == 1
        assert exc.value.total == 3
        assert "resume=True" in str(exc.value)
        assert calls == ["s0"]  # s1/s2 never started
        assert len(store.list()) == 1  # the finished run was flushed

        # Resume finishes the remainder without re-running s0.
        monkeypatch.setattr(runner, "run_scenario", real)
        out = scenarios.run_suite(
            specs,
            retry=self.RETRY,
            store=store,
            resume=True,
            trace=short_trace,
            infra=infra,
        )
        assert [o.name for o in out] == ["s0", "s1", "s2"]
        assert len(store.list()) == 3

    def test_pool_sigterm_flushes_completed(self, tmp_path, short_trace, infra):
        import threading

        store = RunStore(tmp_path)
        specs = _suite(4)
        # One spec hangs its worker; the rest complete and get
        # harvested.  SIGTERM lands while the dispatcher waits out the
        # hang, and must not lose the finished scenarios.
        plan = faults.FaultPlan(
            faults=(faults.Fault("worker-hang", "s3", hang_s=60.0),)
        )

        done = threading.Event()

        def fire_when_partial():
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not done.is_set():
                if len(store.list()) >= 2:
                    os.kill(os.getpid(), signal.SIGTERM)
                    return
                time.sleep(0.05)

        t = threading.Thread(target=fire_when_partial)
        t.start()
        try:
            with faults.injected(plan):
                with pytest.raises(scenarios.SuiteInterrupted) as exc:
                    scenarios.run_suite(
                        specs,
                        jobs=2,
                        chunk_size=1,
                        retry=self.RETRY,
                        store=store,
                        keep_going=True,
                        trace=short_trace,
                        infra=infra,
                    )
        finally:
            done.set()
            t.join()
        assert exc.value.signum == signal.SIGTERM
        assert exc.value.completed >= 2
        saved = {s.name for s in store.list()}
        assert len(saved) >= 2 and "s3" not in saved

    def test_second_signal_escalates(self):
        from repro.scenarios.runner import _graceful_stop

        with _graceful_stop() as stopped:
            assert stopped() is None
            signal.raise_signal(signal.SIGTERM)
            assert stopped() == signal.SIGTERM
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGTERM)
        # Handlers restored: a SIGTERM now uses the default disposition
        # (would kill the process), so just verify ours is gone.
        assert signal.getsignal(signal.SIGTERM) is not None
