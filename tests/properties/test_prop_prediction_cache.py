"""Properties of the process-wide predictor-series cache.

PR 9's caching contract (:func:`repro.core.prediction.cached_prediction_series`):

* a cache hit returns the stored series **bit-identical** to a fresh
  computation, read-only, without recomputing the sliding filter;
* the key — ``(trace content digest, timestep, predictor token, clamp)``
  — separates every distinct (trace, window, clamp) combination, so
  bounded and unbounded replays over the same workload never collide;
* a damaged entry (bit rot, or the ``predict-cache`` fault injection
  poisoning the store) is detected by the sampled checksum and rebuilt
  instead of trusted;
* entries are found by trace object first, and the content digest is
  only taken to compare against an entry from another trace object.
"""

import gc

import numpy as np
import pytest

from repro import faults
from repro.core.prediction import (
    LookAheadMaxPredictor,
    cached_prediction_series,
    clear_prediction_cache,
    prediction_cache_stats,
)
from repro.workload.trace import LoadTrace

pytestmark = pytest.mark.quick


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_prediction_cache()
    yield
    clear_prediction_cache()


def _trace(seed: int, n: int = 800, name: str = "cache-prop") -> LoadTrace:
    rng = np.random.default_rng(seed)
    return LoadTrace(rng.uniform(0.0, 2500.0, size=n), name=name)


class TestCacheHit:
    def test_hit_is_bit_identical_and_read_only(self):
        trace = _trace(1)
        predictor = LookAheadMaxPredictor(120)
        fresh = predictor.series(trace)
        first = cached_prediction_series(predictor, trace)
        assert np.array_equal(first, fresh)
        before = prediction_cache_stats()
        second = cached_prediction_series(predictor, trace)
        after = prediction_cache_stats()
        # Served from the cache: the very same read-only buffer, one
        # more hit, no recomputation (miss count unchanged).
        assert second is first
        assert not second.flags.writeable
        assert after["table_cache_hits"] == before["table_cache_hits"] + 1
        assert after["table_cache_misses"] == before["table_cache_misses"]
        assert after["rebuilds"] == before["rebuilds"]

    def test_equal_content_trace_shares_the_entry(self):
        trace_a = _trace(2, name="run-a")
        trace_b = LoadTrace(trace_a.values.copy(), name="run-b")
        predictor = LookAheadMaxPredictor(90)
        first = cached_prediction_series(predictor, trace_a)
        second = cached_prediction_series(predictor, trace_b)
        # Content-addressed: an equal-content trace object hits.
        assert second is first


class TestKeySeparation:
    def test_window_clamp_and_trace_never_collide(self):
        traces = [_trace(3, name="t3"), _trace(4, name="t4")]
        windows = [30, 200]
        clamps = [None, 700.0]
        # Populate every combination, then re-query: each must return
        # exactly its own freshly computed series.
        for trace in traces:
            for window in windows:
                for clamp in clamps:
                    cached_prediction_series(
                        LookAheadMaxPredictor(window), trace, clamp=clamp
                    )
        for trace in traces:
            for window in windows:
                for clamp in clamps:
                    predictor = LookAheadMaxPredictor(window)
                    expect = predictor.series(trace)
                    if clamp is not None:
                        expect = np.minimum(expect, clamp)
                    got = cached_prediction_series(
                        predictor, trace, clamp=clamp
                    )
                    assert np.array_equal(got, expect), (
                        trace.name, window, clamp
                    )

    def test_clamped_and_unclamped_entries_are_distinct(self):
        trace = _trace(5)
        predictor = LookAheadMaxPredictor(60)
        unclamped = cached_prediction_series(predictor, trace)
        clamped = cached_prediction_series(predictor, trace, clamp=500.0)
        assert unclamped is not clamped
        assert float(np.max(clamped)) <= 500.0
        assert float(np.max(unclamped)) > 500.0


class TestPoisonedEntryRebuild:
    def test_poisoned_store_is_detected_and_rebuilt(self):
        trace = _trace(6, name="poisoned-run")
        predictor = LookAheadMaxPredictor(150)
        plan = faults.FaultPlan(
            faults=(
                faults.Fault(
                    site="predict-cache",
                    key=trace.name,
                    fail_attempts=faults.ALWAYS,
                ),
            )
        )
        with faults.injected(plan):
            first = cached_prediction_series(predictor, trace)
        # The returned series is clean even though the store poisoned
        # its cached copy.
        assert np.array_equal(first, predictor.series(trace))
        before = prediction_cache_stats()
        second = cached_prediction_series(predictor, trace)
        after = prediction_cache_stats()
        # The damaged entry was detected (checksum mismatch), dropped
        # and rebuilt — not served as-is.
        assert after["rebuilds"] == before["rebuilds"] + 1
        assert np.array_equal(second, first)
        # The rebuilt entry is clean: the next query is a plain hit.
        third = cached_prediction_series(predictor, trace)
        assert third is second
        assert prediction_cache_stats()["rebuilds"] == after["rebuilds"]


class TestDigestOnDemand:
    @staticmethod
    def _count_digests(monkeypatch):
        calls = []
        digest = LoadTrace.content_digest

        def counted(self):
            calls.append(self.name)
            return digest(self)

        monkeypatch.setattr(LoadTrace, "content_digest", counted)
        return calls

    def test_digest_only_against_another_trace_object(self, monkeypatch):
        calls = self._count_digests(monkeypatch)
        trace_a = _trace(7, name="run-a")
        predictor = LookAheadMaxPredictor(100)
        first = cached_prediction_series(predictor, trace_a)
        assert cached_prediction_series(predictor, trace_a) is first
        assert calls == []  # found by object: no sha1 over the samples
        trace_b = LoadTrace(trace_a.values.copy(), name="run-b")
        assert cached_prediction_series(predictor, trace_b) is first
        assert sorted(calls) == ["run-a", "run-b"]
        # run-b still matches by content; run-a's digest is kept.
        assert cached_prediction_series(predictor, trace_b) is first
        assert sorted(calls) == ["run-a", "run-b", "run-b"]

    def test_gone_trace_matches_only_by_a_known_digest(self):
        predictor = LookAheadMaxPredictor(100)
        trace_a = _trace(8, name="run-a")
        values = trace_a.values.copy()
        first = cached_prediction_series(predictor, trace_a)
        del trace_a
        gc.collect()
        # No digest was taken while run-a lived: its entry cannot match,
        # and the lookup drops it.
        size = prediction_cache_stats()["table_cache_size"]
        trace_b = LoadTrace(values, name="run-b")
        second = cached_prediction_series(predictor, trace_b)
        assert second is not first
        assert np.array_equal(second, first)
        assert prediction_cache_stats()["table_cache_size"] == size
        # run-c's lookup takes run-b's digest as well, so run-b's entry
        # still matches by content once run-b is gone.
        assert cached_prediction_series(
            predictor, LoadTrace(values, name="run-c")
        ) is second
        del trace_b
        gc.collect()
        before = prediction_cache_stats()
        assert cached_prediction_series(
            predictor, LoadTrace(values, name="run-d")
        ) is second
        after = prediction_cache_stats()
        assert after["table_cache_hits"] == before["table_cache_hits"] + 1
        assert after["table_cache_misses"] == before["table_cache_misses"]
