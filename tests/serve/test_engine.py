"""Streaming engine vs the batch two-phase replay: decision identity,
checkpoint round-trips, restore validation, lifecycle guards."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve import Decision, EngineStateError, StreamingProvisioner

from serve_testlib import WINDOW

pytestmark = pytest.mark.quick


def _stream(table, values, chunks):
    """Feed ``values`` split at the given chunk sizes; return decisions."""
    engine = StreamingProvisioner(table, window=WINDOW)
    decisions = []
    pos = 0
    for size in chunks:
        decisions += engine.feed(values[pos : pos + size])
        pos += size
    assert pos == len(values)
    decisions += engine.finalize()
    return decisions


class TestBatchIdentity:
    def test_single_chunk_matches_batch(
        self, serve_table, serve_values, batch_reconfigs
    ):
        decisions = _stream(serve_table, serve_values, [len(serve_values)])
        assert len(decisions) == len(batch_reconfigs)
        assert all(d.matches(r) for d, r in zip(decisions, batch_reconfigs))

    @pytest.mark.parametrize("size", [1, 7, WINDOW, WINDOW - 1, 1000])
    def test_fixed_chunkings_match_batch(
        self, serve_table, serve_values, batch_reconfigs, size
    ):
        n = len(serve_values)
        chunks = [size] * (n // size)
        if n % size:
            chunks.append(n % size)
        decisions = _stream(serve_table, serve_values, chunks)
        assert len(decisions) == len(batch_reconfigs)
        assert all(d.matches(r) for d, r in zip(decisions, batch_reconfigs))

    def test_payload_bytes_independent_of_chunking(
        self, serve_table, serve_values, batch_payloads
    ):
        decisions = _stream(serve_table, serve_values, [13] * (len(serve_values) // 13) + [len(serve_values) % 13])
        assert [d.to_payload() for d in decisions] == batch_payloads

    def test_empty_feed_calls_are_noops(self, serve_table, serve_values, batch_reconfigs):
        engine = StreamingProvisioner(serve_table, window=WINDOW)
        assert engine.feed([]) == []
        decisions = engine.feed(serve_values)
        assert engine.feed([]) == []
        decisions += engine.finalize()
        assert len(decisions) == len(batch_reconfigs)


class TestInputValidation:
    """``feed`` refuses what :class:`LoadTrace` refuses (negative and
    non-finite rates), before any state changes."""

    @pytest.mark.parametrize("bad", [-3.0, float("nan"), np.inf, -np.inf])
    def test_bad_sample_refused_without_touching_state(
        self, serve_table, serve_values, bad
    ):
        engine = StreamingProvisioner(serve_table, window=WINDOW)
        decisions = engine.feed(serve_values[:500])
        before = json.dumps(engine.state_dict())
        chunk = np.array(serve_values[500:520])
        chunk[7] = bad
        with pytest.raises(ValueError, match="sample 507"):
            engine.feed(chunk)
        assert json.dumps(engine.state_dict()) == before
        # the valid samples still stream exactly like a fresh engine's
        decisions += engine.feed(serve_values[500:])
        decisions += engine.finalize()
        fresh = StreamingProvisioner(serve_table, window=WINDOW)
        expected = fresh.feed(serve_values) + fresh.finalize()
        assert [d.to_payload() for d in decisions] == [
            d.to_payload() for d in expected
        ]

    def test_batch_rejected_feed_emits_nothing(self, serve_table):
        engine = StreamingProvisioner(serve_table, window=10)
        assert engine.feed([5.0] * 20) == []
        with pytest.raises(ValueError, match="sample 20"):
            engine.feed([-3.0] * 20 + [float("nan")] * 5 + [100.0] * 30)
        assert engine.samples_in == 20 and engine.decisions_out == 0


class TestCheckpointing:
    def test_state_round_trips_through_json_mid_stream(
        self, serve_table, serve_values, batch_payloads
    ):
        cut = len(serve_values) // 3
        first = StreamingProvisioner(serve_table, window=WINDOW)
        payloads = [d.to_payload() for d in first.feed(serve_values[:cut])]
        # The daemon checkpoints through a JSON store: the snapshot must
        # survive a dumps/loads cycle bit-exactly (floats via repr).
        snapshot = json.loads(json.dumps(first.state_dict()))
        resumed = StreamingProvisioner(serve_table, window=WINDOW)
        resumed.restore(snapshot)
        payloads += [d.to_payload() for d in resumed.feed(serve_values[cut:])]
        payloads += [d.to_payload() for d in resumed.finalize()]
        assert payloads == batch_payloads

    def test_restore_rejects_wrong_version(self, serve_table):
        engine = StreamingProvisioner(serve_table, window=WINDOW)
        state = engine.state_dict()
        state["version"] = 99
        with pytest.raises(EngineStateError, match="version"):
            engine.restore(state)

    def test_restore_rejects_wrong_window(self, serve_table):
        state = StreamingProvisioner(serve_table, window=WINDOW).state_dict()
        with pytest.raises(EngineStateError, match="window"):
            StreamingProvisioner(serve_table, window=WINDOW + 1).restore(state)

    def test_restore_rejects_different_table(self, serve_table):
        engine = StreamingProvisioner(serve_table, window=WINDOW)
        state = engine.state_dict()
        state["table_rows"] = int(state["table_rows"]) + 1
        with pytest.raises(EngineStateError, match="table"):
            engine.restore(state)

    def test_restore_rejects_clamp_mismatch(self, serve_table):
        state = StreamingProvisioner(serve_table, window=WINDOW).state_dict()
        clamped = StreamingProvisioner(
            serve_table, window=WINDOW, clamp=100.0
        )
        with pytest.raises(EngineStateError, match="clamp"):
            clamped.restore(state)


class TestLifecycle:
    def test_feed_after_finalize_refuses(self, serve_table):
        engine = StreamingProvisioner(serve_table, window=WINDOW)
        engine.feed([10.0] * WINDOW)
        engine.finalize()
        with pytest.raises(EngineStateError, match="finalize"):
            engine.feed([1.0])

    def test_finalize_idempotent(self, serve_table):
        engine = StreamingProvisioner(serve_table, window=WINDOW)
        engine.feed([10.0] * (WINDOW + 5))
        first = engine.finalize()
        assert len(first) == 0  # steady feed: no reconfigurations
        assert engine.finalize() == []

    def test_window_must_be_positive(self, serve_table):
        with pytest.raises(ValueError):
            StreamingProvisioner(serve_table, window=0)

    def test_decision_payload_round_trip(
        self, serve_table, serve_values, batch_payloads
    ):
        restored = [Decision.from_payload(p) for p in batch_payloads]
        assert [d.to_payload() for d in restored] == batch_payloads
