"""The serve daemon end to end: feed to journal, health heartbeats,
fresh-start and resume guards, signal shutdown, and the CLI wiring."""

from __future__ import annotations

import json
import signal
import threading
import time

import pytest

from repro.cli import main
from repro.serve import (
    DecisionJournal,
    FeedChunk,
    ServeConfig,
    ServeDaemon,
    ServeError,
    MemorySource,
    StreamingProvisioner,
    TailFileSource,
    append_feed,
    read_health,
)
from repro.serve import daemon as daemon_module
from repro.serve.daemon import HEALTH_FILE, JOURNAL_FILE
from repro.workload.trace import TraceIngestError

from serve_testlib import WINDOW

pytestmark = pytest.mark.quick


def _config(tmp_path, **kw):
    kw.setdefault("feed", tmp_path / "feed.txt")
    kw.setdefault("state_dir", tmp_path / "state")
    kw.setdefault("window", WINDOW)
    kw.setdefault("max_rate", 3000.0)
    kw.setdefault("poll_s", 0.001)
    kw.setdefault("stall_timeout_s", 30.0)
    return ServeConfig(**kw)


class TestRunToCompletion:
    def test_memory_feed_matches_batch_journal(
        self, tmp_path, serve_table, serve_values, batch_payloads
    ):
        config = _config(tmp_path)
        chunks = [list(serve_values[i : i + 900]) for i in range(0, len(serve_values), 900)]
        daemon = ServeDaemon(
            config, table=serve_table, source=MemorySource(chunks)
        )
        assert daemon.run() == "done"
        journal_path = config.state_dir / JOURNAL_FILE
        assert journal_path.exists()
        from repro.serve import DecisionJournal

        with DecisionJournal(journal_path) as j:
            assert j.payloads() == batch_payloads
        health = read_health(config.state_dir)
        assert health["status"] == "done"
        assert health["decisions"] == len(batch_payloads)
        assert health["journal_records"] == len(batch_payloads)
        assert health["rejected"] == 0

    def test_tail_feed_growing_file(self, tmp_path, serve_table):
        config = _config(tmp_path)
        append_feed(config.feed, [100.0] * (WINDOW * 2))
        daemon = ServeDaemon(config, table=serve_table)
        # Producer appends (with one ramp) while the daemon polls.
        def produce():
            time.sleep(0.02)
            append_feed(config.feed, [900.0] * WINDOW)
            # Long 100-tail: the up-switch boots a paravance (189 s), so
            # the mirror down-decision only unblocks well past t=271.
            append_feed(config.feed, [100.0] * WINDOW * 5, end=True)

        t = threading.Thread(target=produce)
        t.start()
        try:
            assert daemon.run() == "done"
        finally:
            t.join()
        assert daemon.engine.samples_in == WINDOW * 8
        assert daemon.journal.count >= 2  # up for the ramp, down after

    def test_periodic_checkpoint_updates_source_offset(
        self, tmp_path, serve_table
    ):
        config = _config(tmp_path, checkpoint_every=10)
        append_feed(config.feed, [100.0] * 50, end=True)
        daemon = ServeDaemon(config, table=serve_table)
        assert daemon.run() == "done"
        state = daemon.store.load_state(config.name)
        assert state is not None
        assert state["source"]["offset"] == config.feed.stat().st_size
        assert state["engine"]["samples_in"] == 50


class TestGuards:
    def test_fresh_start_refuses_existing_checkpoint(
        self, tmp_path, serve_table
    ):
        config = _config(tmp_path)
        daemon = ServeDaemon(
            config, table=serve_table, source=MemorySource([[100.0] * WINDOW])
        )
        daemon.run()
        with pytest.raises(ServeError, match="--resume"):
            ServeDaemon(config, table=serve_table)

    def test_fresh_start_refuses_orphan_journal(self, tmp_path, serve_table):
        config = _config(tmp_path)
        config.state_dir.mkdir(parents=True)
        from repro.serve import DecisionJournal

        with DecisionJournal(config.state_dir / JOURNAL_FILE) as j:
            j.append(0, b"{}")
        with pytest.raises(ServeError, match="no checkpoint"):
            ServeDaemon(config, table=serve_table)

    def test_resume_without_checkpoint_refuses(self, tmp_path, serve_table):
        with pytest.raises(ServeError, match="nothing to resume"):
            ServeDaemon(_config(tmp_path), resume=True, table=serve_table)

    def test_resume_refuses_config_drift(self, tmp_path, serve_table):
        config = _config(tmp_path)
        ServeDaemon(
            config, table=serve_table, source=MemorySource([[100.0]])
        ).run()
        drifted = _config(tmp_path, window=WINDOW + 10)
        with pytest.raises(ServeError, match="different configuration"):
            ServeDaemon(drifted, resume=True, table=serve_table)

    def test_resume_continues_generation(self, tmp_path, serve_table):
        config = _config(tmp_path)
        # end=False: the feed stalls, so the run stops on poll budget
        # with the feed unfinished — a resumable cut.
        daemon = ServeDaemon(
            config,
            table=serve_table,
            source=MemorySource([[100.0] * WINDOW * 2], end=False),
        )
        assert daemon.run(max_polls=3) == "stopped"
        resumed = ServeDaemon(
            config,
            resume=True,
            table=serve_table,
            source=MemorySource([[900.0] * WINDOW]),
        )
        resumed.engine  # restored from checkpoint
        assert resumed.generation == 1
        assert resumed.engine.samples_in == WINDOW * 2
        assert resumed.run() == "done"
        assert read_health(config.state_dir)["generation"] == 1


class TestSignals:
    def test_sigterm_checkpoints_and_stops(self, tmp_path, serve_table):
        config = _config(tmp_path, poll_s=0.001)
        append_feed(config.feed, [100.0] * WINDOW)  # no END: daemon idles
        daemon = ServeDaemon(config, table=serve_table)

        def fire():
            time.sleep(0.05)
            signal.raise_signal(signal.SIGTERM)

        t = threading.Thread(target=fire)
        t.start()
        try:
            assert daemon.run() == "stopped"
        finally:
            t.join()
        health = read_health(config.state_dir)
        assert health["status"] == "stopped"
        assert any("signal" in e for e in health["events"])
        assert daemon.store.load_state(config.name) is not None


class TestHealth:
    def test_read_health_absent_and_torn(self, tmp_path):
        assert read_health(tmp_path) is None
        (tmp_path / "health.json").write_text('{"status": "runn')
        assert read_health(tmp_path) is None

    def test_reject_only_poll_writes_health_at_once(self, tmp_path, serve_table):
        """A poll that only rejects a line must not leave health stale."""
        config = _config(tmp_path)

        def garbage():
            with open(config.feed, "a") as fh:
                fh.write("garbage\n")

        script = [
            lambda: append_feed(config.feed, [100.0] * 60),
            garbage,
            lambda: None,
            lambda: None,
            lambda: append_feed(config.feed, [], end=True),
        ]
        seen = []

        class Observed:
            """Reads the health file, then runs the producer, then polls."""

            def __init__(self):
                self.inner = TailFileSource(config.feed, name=config.name)

            def state(self):
                return self.inner.state()

            def poll(self):
                seen.append(read_health(config.state_dir)["rejected"])
                if len(seen) <= len(script):
                    script[len(seen) - 1]()
                return self.inner.poll()

        daemon = ServeDaemon(config, table=serve_table, source=Observed())
        assert daemon.run() == "done"
        # Health read before polls 1-5: the reject lands on poll 2, so
        # polls 3 and 4 (which bring nothing) must already see it.
        assert seen == [0, 0, 1, 1, 1]

    def test_long_malformed_line_keeps_health_small(self, tmp_path, serve_table):
        config = _config(tmp_path)
        append_feed(config.feed, [100.0] * 10)
        offset = config.feed.stat().st_size
        with open(config.feed, "a") as fh:
            fh.write("x" * 1_000_000 + "\n")
        append_feed(config.feed, [100.0] * 10, end=True)
        daemon = ServeDaemon(config, table=serve_table)
        assert daemon.run() == "done"
        assert daemon.rejected == 1
        assert (config.state_dir / HEALTH_FILE).stat().st_size < 8 * 1024
        events = read_health(config.state_dir)["events"]
        (reject,) = [e for e in events if e.startswith("rejected")]
        assert "line 11" in reject and f"byte offset {offset}" in reject
        assert str(config.feed) in reject and "1000000-byte line" in reject


class _FakeClock:
    """A monotonic clock that advances a fixed step on every read."""

    def __init__(self, step):
        self.step = step
        self.now = 1000.0

    def __call__(self):
        self.now += self.step
        return self.now


class _ScriptedSource:
    """One scripted poll result per poll: samples, a reject or nothing."""

    def __init__(self, script):
        self.script = list(script)
        self.polls = 0

    def state(self):
        return {"offset": self.polls, "line_no": self.polls}

    def poll(self):
        self.polls += 1
        if self.polls > len(self.script):
            return FeedChunk([], [], True)
        return self.script[self.polls - 1]


class TestHeartbeat:
    """Health cadence on a fake clock: events write at once, progress
    alone at most once per ``_HEARTBEAT_S`` of clock time."""

    # Steps exact in binary, so a heartbeat is a whole number of reads.
    @pytest.mark.parametrize("step", [0.0625, 0.25])
    def test_cadence_follows_clock_not_polls(
        self, tmp_path, monkeypatch, serve_table, day_trace, step
    ):
        clock = _FakeClock(step)
        monkeypatch.setattr(daemon_module, "_clock", clock)
        values = [float(v) for v in day_trace.values]
        chunks = [values[i : i + 60] for i in range(0, len(values), 60)]
        reject_poll, stall_poll = 300, 700
        idle_polls = int(2.0 / step) + 3  # crosses the 2 s stall timeout
        script = []
        for i, chunk in enumerate(chunks):
            if i == reject_poll:
                error = TraceIngestError("feed: malformed feed record 'x'")
                script.append(FeedChunk([], [error], False))
            if i == stall_poll:
                script += [FeedChunk([], [], False)] * idle_polls
            script.append(FeedChunk(chunk, [], False))
        source = _ScriptedSource(script)
        config = _config(
            tmp_path, window=378, poll_s=0.0, stall_timeout_s=2.0,
        )
        daemon = ServeDaemon(config, table=serve_table, source=source)
        writes = []
        write = daemon._write_health

        def recording_write(now):
            write(now)
            writes.append((source.polls, now, read_health(config.state_dir)))

        monkeypatch.setattr(daemon, "_write_health", recording_write)
        started = clock.now
        assert daemon.run() == "done"
        elapsed = clock.now - started

        polls = [p for p, _, _ in writes]
        health = [h for _, _, h in writes]
        # At start, before any poll.
        assert polls[0] == 0 and health[0]["status"] == "running"
        assert health[0]["samples_in"] == 0
        # On the reject-only poll itself.
        i = polls.index(reject_poll + 1)
        assert health[i]["rejected"] == 1 and health[i - 1]["rejected"] == 0
        # On each status change: stalled, then running again.
        statuses = [h["status"] for h in health]
        stalled = statuses.index("stalled")
        assert "stalled" not in statuses[stalled + 1 :]
        resumed = polls[stalled + 1 :].index(stall_poll + idle_polls + 2)
        resumed += stalled + 1
        assert statuses[resumed] == "running"
        assert health[resumed]["events"][-1] == "feed resumed after stall"
        # At done: the terminal write is the last.
        assert statuses[-1] == "done" and statuses.count("done") == 1

        # Progress-only writes (no new event, still running) come one
        # heartbeat of clock time after the previous write, so their
        # count follows the clock: the same polls at 4x the step make
        # 4x the writes.
        gaps = [
            now - prev_now
            for (_, prev_now, prev), (_, now, h) in zip(writes, writes[1:])
            if h["events"] == prev["events"] and h["status"] == "running"
        ]
        assert min(gaps) >= daemon_module._HEARTBEAT_S
        beats = elapsed / daemon_module._HEARTBEAT_S
        assert beats - 8 <= len(gaps) <= beats

        # The final payload keeps its keys and counters.
        final = read_health(config.state_dir)
        assert final == health[-1]
        assert set(final) == {
            "name", "pid", "status", "generation", "samples_in",
            "decisions", "journal_records", "rejected", "feed", "events",
            "updated_at",
        }
        engine = StreamingProvisioner(serve_table, window=378)
        batch = engine.feed(values) + engine.finalize()
        with DecisionJournal(config.state_dir / JOURNAL_FILE) as journal:
            assert journal.payloads() == [d.to_payload() for d in batch]
        assert final["status"] == "done" and final["generation"] == 0
        assert final["samples_in"] == len(values) == 86400
        assert final["decisions"] == final["journal_records"] == len(batch)
        assert final["rejected"] == 1
        assert final["events"] == [
            "rejected: feed: malformed feed record 'x'",
            health[stalled]["events"][-1],
            "feed resumed after stall",
            f"feed complete: 86400 samples, {len(batch)} decisions",
        ]
        assert health[stalled]["events"][-1].startswith("feed stalled for")


class TestCli:
    def test_serve_run_status_and_resume(self, tmp_path, capsys):
        feed = tmp_path / "feed.txt"
        state = tmp_path / "state"
        append_feed(feed, [100.0] * 80)
        base = [
            "serve", str(feed), "--dir", str(state),
            "--window", "60", "--max-rate", "3000", "--poll", "0.001",
        ]
        # No END yet: the poll budget stops the daemon mid-feed.
        assert main(base + ["--max-polls", "5"]) == 3
        out = capsys.readouterr().out
        assert "serve stopped" in out
        append_feed(feed, [900.0] * 40, end=True)
        assert main(base + ["--resume", "--max-polls", "50"]) == 0
        assert "serve done" in capsys.readouterr().out
        assert main(["serve", "--status", "--dir", str(state)]) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["status"] == "done" and health["generation"] == 1

    def test_serve_status_without_state(self, tmp_path, capsys):
        assert main(["serve", "--status", "--dir", str(tmp_path)]) == 1
        assert "no serve health" in capsys.readouterr().err

    def test_serve_requires_feed(self, tmp_path):
        with pytest.raises(SystemExit, match="feed"):
            main(["serve", "--dir", str(tmp_path)])

    def test_serve_error_is_clean_exit(self, tmp_path, capsys):
        feed = tmp_path / "feed.txt"
        append_feed(feed, [1.0], end=True)
        args = ["serve", str(feed), "--dir", str(tmp_path / "s"),
                "--max-polls", "10"]
        assert main(args) == 0
        capsys.readouterr()
        # Second fresh start over the same state dir: refused, exit 1.
        assert main(args) == 1
        assert "--resume" in capsys.readouterr().err
