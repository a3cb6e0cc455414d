"""Load predictors driving the proactive scheduler.

The paper *emulates* a prediction mechanism: at each decision time the
predicted target rate is the **maximum of the real trace over a sliding
look-ahead window** of 378 s (two times the longest switch-on duration, so
a machine switched on for a predicted peak is ready before the peak
arrives).  :class:`LookAheadMaxPredictor` implements exactly that.

Sec. III classifies load knowledge as *perfect*, *partial* or *unknown*;
the extra predictors cover those regimes and power the future-work study
on prediction errors (ablation A3):

* :class:`PerfectPredictor` — clairvoyant instantaneous load (window 1);
* :class:`TrailingMaxPredictor` — reactive: holds the recent peak, no
  oracle knowledge;
* :class:`EWMAPredictor` — reactive exponentially weighted average with a
  safety margin;
* :class:`NoisyPredictor` — wraps any predictor with multiplicative
  (log-normal) error and optional bias, modelling imperfect forecasts.

Every predictor exposes :meth:`Predictor.series`, the full per-second
prediction vector, so the scheduler's hot path stays vectorised.
"""

from __future__ import annotations

import abc
import itertools
import math
import weakref
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..workload.sliding import lookahead_max, trailing_max
from ..workload.trace import LoadTrace

__all__ = [
    "Predictor",
    "LookAheadMaxPredictor",
    "PerfectPredictor",
    "TrailingMaxPredictor",
    "EWMAPredictor",
    "NoisyPredictor",
    "paper_window",
    "cached_prediction_series",
    "prediction_cache_stats",
    "clear_prediction_cache",
]

ArrayOrTrace = Union[np.ndarray, LoadTrace]


def _values(load: ArrayOrTrace) -> np.ndarray:
    if isinstance(load, LoadTrace):
        return load.values
    arr = np.asarray(load, dtype=float)
    if arr.ndim != 1:
        raise ValueError("load series must be 1-D")
    return arr


def paper_window(profiles, factor: float = 2.0) -> int:
    """The paper's look-ahead window: ``factor`` x the longest On duration.

    With Table I this is ``2 x 189 s = 378 s``.
    """
    longest = max(p.on_time for p in profiles)
    return max(1, int(round(factor * longest)))


class Predictor(abc.ABC):
    """Maps a load series to a per-time-step predicted target rate."""

    #: Human-readable name used in reports and ablation tables.
    name: str = "predictor"

    @property
    def cache_token(self) -> Optional[tuple]:
        """Hashable token identifying this predictor's *function*.

        Two predictor instances with equal tokens must produce
        bit-identical :meth:`series` output for the same trace — the
        token is the predictor part of the process-wide series-cache key
        (``name`` is not safe: e.g. :class:`NoisyPredictor` omits its
        seed from the display name).  ``None`` opts out of caching;
        subclasses that are pure functions of their parameters override.
        """
        return None

    @abc.abstractmethod
    def series(self, load: ArrayOrTrace) -> np.ndarray:
        """Predicted target rate for every time step of ``load``."""

    def predict(self, load: ArrayOrTrace, t: int) -> float:
        """Prediction at one time step (convenience; series() is the API)."""
        return float(self.series(load)[t])


@dataclass
class LookAheadMaxPredictor(Predictor):
    """The paper's emulated predictor: max over the next ``window`` seconds.

    ``window`` defaults to 378 s = 2 x the longest On duration of Table I.
    """

    window: int = 378

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1 second")
        self.name = f"lookahead-max({self.window}s)"

    @property
    def cache_token(self) -> tuple:
        return ("lookahead-max", self.window)

    def series(self, load: ArrayOrTrace) -> np.ndarray:
        return lookahead_max(_values(load), self.window)


@dataclass
class PerfectPredictor(Predictor):
    """Clairvoyant instantaneous load (equivalent to a window of 1 s)."""

    def __post_init__(self) -> None:
        self.name = "perfect"

    @property
    def cache_token(self) -> tuple:
        return ("perfect",)

    def series(self, load: ArrayOrTrace) -> np.ndarray:
        return _values(load).copy()


@dataclass
class TrailingMaxPredictor(Predictor):
    """Reactive: the maximum load seen over the past ``window`` seconds.

    No oracle knowledge — this is what a real deployment can compute.  It
    lags rising edges by design, which the QoS accounting then exposes.
    """

    window: int = 378

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1 second")
        self.name = f"trailing-max({self.window}s)"

    @property
    def cache_token(self) -> tuple:
        return ("trailing-max", self.window)

    def series(self, load: ArrayOrTrace) -> np.ndarray:
        return trailing_max(_values(load), self.window)


@dataclass
class EWMAPredictor(Predictor):
    """Reactive EWMA with a multiplicative safety ``headroom``.

    ``prediction[t] = headroom * ewma(load[:t])`` (the EWMA of the *past*
    only; the first step predicts the first sample).
    """

    alpha: float = 0.01
    headroom: float = 1.2

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if self.headroom <= 0:
            raise ValueError("headroom must be > 0")
        self.name = f"ewma(a={self.alpha:g},h={self.headroom:g})"

    @property
    def cache_token(self) -> tuple:
        return ("ewma", self.alpha, self.headroom)

    def series(self, load: ArrayOrTrace) -> np.ndarray:
        arr = _values(load)
        out = np.empty_like(arr)
        try:
            from scipy.signal import lfilter

            # EWMA as an IIR filter seeded with the first sample.
            b, a = [self.alpha], [1.0, -(1.0 - self.alpha)]
            zi = np.array([(1.0 - self.alpha) * arr[0]])
            ew, _ = lfilter(b, a, arr, zi=zi)
        except Exception:  # pragma: no cover - scipy present in test env
            ew = np.empty_like(arr)
            acc = arr[0]
            for i, v in enumerate(arr):
                acc = self.alpha * v + (1 - self.alpha) * acc
                ew[i] = acc
        # Shift by one step: the prediction for t uses data up to t-1.
        out[0] = arr[0] * self.headroom
        out[1:] = ew[:-1] * self.headroom
        return out


@dataclass
class NoisyPredictor(Predictor):
    """Wraps a predictor with log-normal relative error and bias.

    ``prediction'[t] = prediction[t] * bias * lognormal(sigma)``; the
    future-work study (A3) sweeps ``sigma`` to measure how prediction error
    degrades energy and QoS.  Deterministic given ``seed``.
    """

    base: Predictor = field(default_factory=LookAheadMaxPredictor)
    sigma: float = 0.1
    bias: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.bias <= 0:
            raise ValueError("bias must be > 0")
        self.name = f"noisy({self.base.name},s={self.sigma:g},b={self.bias:g})"

    @property
    def cache_token(self) -> Optional[tuple]:
        # Deterministic given ``seed`` — cacheable iff the base is, and
        # the seed must be part of the key (the display name drops it).
        base_token = self.base.cache_token
        if base_token is None:
            return None
        return ("noisy", base_token, self.sigma, self.bias, self.seed)

    def series(self, load: ArrayOrTrace) -> np.ndarray:
        clean = self.base.series(load)
        if self.sigma == 0 and self.bias == 1.0:
            return clean
        rng = np.random.default_rng(self.seed)
        noise = rng.lognormal(
            mean=-0.5 * self.sigma**2, sigma=self.sigma, size=clean.shape
        )
        return np.maximum(clean * self.bias * noise, 0.0)


# ---------------------------------------------------------------------------
# Process-wide prediction-series cache
# ---------------------------------------------------------------------------
#
# On a 183-day trace (2-vCPU Xeon) the sliding maximum takes 0.08-0.09 s,
# and a trace object's sha1 content digest 0.10-0.12 s.  Sweep grids over
# scheduler/inventory axes would recompute the series per grid point for
# the *same* workload.  The cache memoises the fully post-processed
# series — filter output plus the bounded-cluster clamp — under
# ``(predictor cache_token, clamp, trace length, trace timestep)``, and
# within that by trace: first by object (each entry holds the trace it
# came from weakly), then by content.  A digest is only taken when an
# entry under the same key came from another trace object, so the first
# replay of a fresh trace pays none, while an equal-content trace built
# again still shares the entry as long as the first trace lives or its
# digest was taken.
#
# Entries are stored read-only with a sampled CRC self-check (head + tail
# of the buffer) so accidental in-process corruption is detected and the
# entry rebuilt rather than trusted; the ``predict-cache`` fault site
# deliberately poisons entries at store time to prove that path.

#: Lazily constructed :class:`repro.sim.energy.TelemetryLRU` (imported at
#: call time: ``repro.sim`` imports this module at package init).
_SERIES_CACHE = None
_SERIES_CACHE_MAXSIZE = 64
_SERIES_REBUILDS = 0
#: Entry serials: an entry's key is ``(key, serial)``.
_SERIALS = itertools.count()


class _SeriesEntry:
    """One cached series, with the trace it came from held weakly."""

    __slots__ = ("trace", "digest", "series", "checksum")

    def __init__(self, trace, digest, series, checksum) -> None:
        self.trace = weakref.ref(trace)
        self.digest: Optional[str] = digest  #: taken on demand
        self.series = series
        self.checksum = checksum


def _series_cache():
    global _SERIES_CACHE
    if _SERIES_CACHE is None:
        from ..sim.energy import TelemetryLRU

        _SERIES_CACHE = TelemetryLRU(maxsize=_SERIES_CACHE_MAXSIZE)
    return _SERIES_CACHE


def _series_checksum(series: np.ndarray) -> int:
    """Sampled integrity check: CRC of the buffer's head and tail.

    A full-buffer CRC would cost ~100 ms per hit on a year series and
    defeat the cache; sampling the first/last 256 samples plus the length
    is enough to catch truncation and the torn-write/bit-rot class of
    corruption this guards against.
    """
    import zlib

    head = np.ascontiguousarray(series[:256])
    tail = np.ascontiguousarray(series[-256:])
    crc = zlib.crc32(memoryview(head))
    crc = zlib.crc32(memoryview(tail), crc)
    return zlib.crc32(len(series).to_bytes(8, "little"), crc)


def _compute_series(
    predictor: Predictor, trace: ArrayOrTrace, clamp: Optional[float]
) -> np.ndarray:
    pred = predictor.series(trace)
    if clamp is not None:
        pred = np.minimum(pred, clamp)
    return pred


def _find_key(cache, key: tuple, trace: LoadTrace):
    """The cache key of ``trace``'s entry under ``key``, and its digest.

    By object first: an entry made from ``trace`` itself.  Otherwise by
    content, and only if some entry under ``key`` came from another
    trace object: then ``trace``'s digest is taken and compared with
    each such entry's, which is taken from its trace the first time.  An
    entry whose trace is gone and that has no digest can no longer
    match, so it is dropped.  The digest is ``None`` when none was
    taken.
    """
    others = []
    for entry_key, entry in cache.items():
        if entry_key[0] == key:
            owner = entry.trace()
            if owner is trace:
                return entry_key, None
            if owner is None and entry.digest is None:
                cache.pop(entry_key)
                continue
            others.append((entry_key, entry, owner))
    digest = None
    if others:
        digest = trace.content_digest()
        for entry_key, entry, owner in others:
            if entry.digest is None and owner is not None:
                entry.digest = owner.content_digest()
            if entry.digest == digest:
                return entry_key, digest
    return None, digest


def cached_prediction_series(
    predictor: Predictor,
    trace: ArrayOrTrace,
    clamp: Optional[float] = None,
) -> np.ndarray:
    """Memoised ``predictor.series(trace)`` with an optional upper clamp.

    Returns the post-processed prediction series (``np.minimum`` with
    ``clamp`` applied when given — the bounded-cluster cap of the replay
    loop).  When the predictor declares a :attr:`Predictor.cache_token`
    and ``trace`` is a :class:`LoadTrace`, results are served from a
    process-wide LRU, found by trace object or else by trace content;
    cached arrays are read-only and bit-identical to a fresh
    computation.  Predictors without a token (or raw ndarray inputs)
    fall through to direct computation.
    """
    token = predictor.cache_token
    if token is None or not isinstance(trace, LoadTrace):
        return _compute_series(predictor, trace, clamp)

    from .. import faults

    global _SERIES_REBUILDS
    cache = _series_cache()
    key = (
        token,
        None if clamp is None else float(clamp),
        len(trace),
        float(trace.timestep),
    )
    entry_key, digest = _find_key(cache, key, trace)
    entry = cache.get(entry_key)  # a miss when nothing matched
    if entry is not None:
        if _series_checksum(entry.series) == entry.checksum:
            return entry.series
        # Damaged entry (bit rot / injected poison): drop, rebuild, restore.
        _SERIES_REBUILDS += 1
        cache.pop(entry_key)

    series = _compute_series(predictor, trace, clamp)
    if series.base is not None or not series.flags.owndata:
        series = series.copy()
    series.setflags(write=False)
    checksum = _series_checksum(series)
    stored = series
    if faults.check("predict-cache", trace.name):
        # Poison the stored copy (not the returned series): flip the
        # first sample so the sampled CRC no longer matches.
        stored = series.copy()
        stored[0] = stored[0] + 1.0 if stored[0] == 0.0 else -stored[0]
        stored.setflags(write=False)
    cache.put(
        (key, next(_SERIALS)), _SeriesEntry(trace, digest, stored, checksum)
    )
    return series


def prediction_cache_stats() -> dict:
    """Telemetry for ``repro cache-stats``: hits/misses/size + rebuilds."""
    stats = dict(_series_cache().stats())
    stats["rebuilds"] = _SERIES_REBUILDS
    return stats


def clear_prediction_cache() -> None:
    """Drop every cached series and reset telemetry (tests, forks)."""
    global _SERIES_REBUILDS
    _series_cache().clear()
    _SERIES_REBUILDS = 0
