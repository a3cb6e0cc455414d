"""Streaming-vs-batch identity under randomised chunkings and crashes.

The keystone contract of the serve subsystem: for *any* chunking of the
feed, with or without crash/resume cycles at *any* point, the streaming
engine emits the exact decision stream the batch two-phase replay
derives from the whole trace, and the crash-safe journal ends up byte
for byte identical to an uninterrupted run's.  Plus the bounded-memory
guarantee: engine state does not grow with feed length.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve import DecisionJournal, StreamingProvisioner

from serve_testlib import WINDOW

pytestmark = pytest.mark.quick


def _random_chunks(rng, n, max_chunk=5000):
    """Split ``n`` samples into random-size contiguous chunks."""
    sizes = []
    left = n
    while left:
        size = int(rng.integers(1, min(max_chunk, left) + 1))
        sizes.append(size)
        left -= size
    return sizes


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_chunkings_are_batch_identical(
    serve_table, serve_values, batch_reconfigs, batch_payloads, seed
):
    rng = np.random.default_rng(seed)
    engine = StreamingProvisioner(serve_table, window=WINDOW)
    decisions = []
    pos = 0
    for size in _random_chunks(rng, len(serve_values)):
        decisions += engine.feed(serve_values[pos : pos + size])
        pos += size
    decisions += engine.finalize()
    assert len(decisions) == len(batch_reconfigs)
    assert all(d.matches(r) for d, r in zip(decisions, batch_reconfigs))
    assert [d.to_payload() for d in decisions] == batch_payloads


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_random_crash_resume_journal_byte_identical(
    tmp_path, serve_table, serve_values, batch_payloads, seed
):
    """Crash at random points, resume from the last checkpoint, end with
    a byte-identical journal.

    Simulates the daemon's crash protocol in-process: decisions are
    journaled (fsync'd) as they emerge, checkpoints are taken at random
    chunk boundaries, and a "crash" discards every live object —
    optionally leaving torn garbage at the journal tail, like a real
    ``kill -9`` mid-append — before restoring from the checkpoint and
    re-feeding from the checkpoint's sample offset under a *different*
    chunking.
    """
    rng = np.random.default_rng(seed)
    path = tmp_path / f"journal-{seed}.bin"
    values = serve_values

    def fresh_engine():
        return StreamingProvisioner(serve_table, window=WINDOW)

    engine = fresh_engine()
    journal = DecisionJournal(path)
    # The daemon checkpoints before consuming anything: a crash before
    # the first periodic checkpoint must still leave a resumable base.
    checkpoint = json.loads(json.dumps(engine.state_dict()))
    crashes = 0
    while True:
        pos = engine.samples_in
        if pos >= len(values) and engine.finalized:
            break
        if pos < len(values):
            size = int(rng.integers(1, 900))
            decisions = engine.feed(values[pos : pos + size])
        else:
            decisions = engine.finalize()
        base_index = engine.decisions_out - len(decisions)
        for i, d in enumerate(decisions):
            # Re-derived decisions verify against journaled bytes; new
            # ones append durably.
            journal.append(base_index + i, d.to_payload())
        roll = rng.random()
        if roll < 0.3:
            # Periodic checkpoint (JSON round-trip like the RunStore).
            checkpoint = json.loads(json.dumps(engine.state_dict()))
        elif roll < 0.6 and crashes < 6:
            # Crash: lose the engine + journal objects; maybe tear the
            # next (never-acknowledged) append mid-frame.
            crashes += 1
            journal.close()
            if rng.random() < 0.5:
                with open(path, "ab") as fh:
                    fh.write(b"\x99\x00\x00\x00torn")
            engine = fresh_engine()
            engine.restore(checkpoint)
            journal = DecisionJournal(path)  # recovery truncates the tear
            assert journal.count >= engine.decisions_out
    journal.close()
    assert crashes > 0  # the schedule above must actually exercise crashes
    with DecisionJournal(path) as final:
        assert final.payloads() == batch_payloads


def test_resume_replay_is_verify_only(tmp_path, serve_table, serve_values):
    """A resumed engine behind the journal re-derives decisions that are
    verified (append returns False), never rewritten."""
    path = tmp_path / "journal.bin"
    engine = StreamingProvisioner(serve_table, window=WINDOW)
    journal = DecisionJournal(path)
    # Deep enough into the trace that decisions exist before the cut.
    cut = (len(serve_values) * 3) // 4
    checkpoint = json.loads(json.dumps(engine.state_dict()))  # at t=0
    for i, d in enumerate(engine.feed(serve_values[:cut])):
        journal.append(i, d.to_payload())
    journal.close()
    journaled = journal.count
    assert journaled > 0

    resumed = StreamingProvisioner(serve_table, window=WINDOW)
    resumed.restore(checkpoint)  # way behind the journal
    journal = DecisionJournal(path)
    moved = []
    idx = resumed.decisions_out
    for d in resumed.feed(serve_values[:cut]):
        moved.append(journal.append(idx, d.to_payload()))
        idx += 1
    # Every re-derived decision hit the verify path: zero bytes moved.
    assert moved and not any(moved)
    assert journal.count == journaled
    journal.close()


def test_memory_is_bounded_by_window_not_feed_length(serve_table):
    rng = np.random.default_rng(7)
    engine = StreamingProvisioner(serve_table, window=WINDOW)
    engine.feed(rng.uniform(50.0, 900.0, size=WINDOW * 2))
    after_short = engine.state_nbytes()
    for _ in range(30):
        engine.feed(rng.uniform(50.0, 900.0, size=3600))
    after_long = engine.state_nbytes()
    assert after_long == after_short  # state is O(window), not O(feed)
    assert len(engine.state_dict()["tail"]) == WINDOW - 1
    # The walk's transition memo is bounded by distinct transition
    # pairs, not time.
    assert len(engine._walk.memo) <= len(serve_table.counts_array) ** 2
