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
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..workload.patterns import _ar1_filter
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

    def series(self, load: ArrayOrTrace) -> np.ndarray:
        return lookahead_max(_values(load), self.window)


@dataclass
class PerfectPredictor(Predictor):
    """Clairvoyant instantaneous load (equivalent to a window of 1 s)."""

    def __post_init__(self) -> None:
        self.name = "perfect"

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

    def series(self, load: ArrayOrTrace) -> np.ndarray:
        arr = _values(load)
        # ew[n] = (1 - alpha) * ew[n-1] + alpha * load[n], seeded with the
        # first sample: trace synthesis's first-order filter, which
        # rounds each step as ``lfilter`` does without importing it.
        ew = _ar1_filter(self.alpha * arr, 1.0 - self.alpha, float(arr[0]))
        out = np.empty_like(arr)
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

    def series(self, load: ArrayOrTrace) -> np.ndarray:
        clean = self.base.series(load)
        if self.sigma == 0 and self.bias == 1.0:
            return clean
        rng = np.random.default_rng(self.seed)
        noise = rng.lognormal(
            mean=-0.5 * self.sigma**2, sigma=self.sigma, size=clean.shape
        )
        return np.maximum(clean * self.bias * noise, 0.0)


def cached_prediction_series(
    predictor: Predictor,
    trace: ArrayOrTrace,
    clamp: Optional[float] = None,
) -> np.ndarray:
    """``predictor.series(trace)``, capped at ``clamp`` when one is given.

    The replay's prediction step (the clamp is the bounded-cluster cap of
    :class:`~repro.sim.loop.EventDrivenReplay`).  Despite its name it
    caches nothing: a replay predicts once per run, and a process-wide
    memo only kept every series alive after its single reader, the
    decision walk, was done with it (DESIGN.md, "prediction without a
    series cache").  The name stays, with :func:`prediction_cache_stats`,
    because ``perfbench/spans.py`` wraps both in traced runs.
    """
    pred = predictor.series(trace)
    if clamp is not None:
        pred = np.minimum(pred, clamp)
    return pred


def prediction_cache_stats() -> dict:
    """Zero hits and misses: no prediction series is cached (see
    :func:`cached_prediction_series`)."""
    return {"table_cache_hits": 0, "table_cache_misses": 0}
