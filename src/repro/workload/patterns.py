"""Composable synthetic load patterns.

Building blocks for workloads "with variable load over time" (Sec. III):
diurnal and weekly periodicity, linear/exponential trends, flash crowds,
and multiplicative noise.  Every generator returns a plain numpy array of
per-second rates so patterns compose by multiplication/addition before
being wrapped in a :class:`repro.workload.trace.LoadTrace`.

All stochastic generators take an explicit ``rng`` so traces are exactly
reproducible (benchmarks fix seeds).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .trace import SECONDS_PER_DAY, LoadTrace

__all__ = [
    "constant",
    "diurnal",
    "weekly",
    "linear_trend",
    "flash_crowd",
    "add_flash_crowd",
    "bursts",
    "micro_bursts",
    "multiplicative_noise",
    "heteroskedastic_noise",
    "ar1_noise",
    "compose",
    "make_trace",
]


def _check_duration(duration_s: int) -> int:
    duration_s = int(duration_s)
    if duration_s <= 0:
        raise ValueError("duration must be > 0 seconds")
    return duration_s


def constant(duration_s: int, level: float) -> np.ndarray:
    """A flat load of ``level`` for ``duration_s`` seconds."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return np.full(_check_duration(duration_s), float(level))


def diurnal(
    duration_s: int,
    low: float,
    high: float,
    peak_hour: float = 15.0,
    sharpness: float = 1.0,
) -> np.ndarray:
    """Day/night oscillation between ``low`` and ``high``.

    A raised cosine peaking at ``peak_hour`` (local time); ``sharpness > 1``
    narrows the daily peak (evening-traffic shape), ``< 1`` flattens it.
    Every step runs in place on the output, so a year of seconds costs one
    array, not one per intermediate.
    """
    duration_s = _check_duration(duration_s)
    if not 0 <= low <= high:
        raise ValueError("need 0 <= low <= high")
    if sharpness <= 0:
        raise ValueError("sharpness must be > 0")
    out = np.arange(duration_s, dtype=float)
    # phase = 2 pi (t / day - peak_hour / 24), then 0.5 (1 + cos(phase)):
    # 1 at peak_hour, 0 at peak_hour + 12h.
    np.divide(out, SECONDS_PER_DAY, out=out)
    np.subtract(out, peak_hour / 24.0, out=out)
    np.multiply(2 * math.pi, out, out=out)
    np.cos(out, out=out)
    np.add(1, out, out=out)
    np.multiply(0.5, out, out=out)
    if sharpness != 1.0:
        out **= sharpness  # the scalar-power fast paths of ``base**sharpness``
    np.multiply(high - low, out, out=out)
    np.add(low, out, out=out)
    return out


def weekly(
    duration_s: int,
    weekday_level: float = 1.0,
    weekend_level: float = 0.7,
    start_weekday: int = 0,
) -> np.ndarray:
    """Weekday/weekend multiplicative modulation (smooth at midnight).

    Returns one multiplier per second; Saturday and Sunday get
    ``weekend_level``, other days ``weekday_level``.
    """
    duration_s = _check_duration(duration_s)
    out = np.full(duration_s, weekday_level, dtype=float)
    for lo in range(0, duration_s, SECONDS_PER_DAY):
        if (lo // SECONDS_PER_DAY + start_weekday) % 7 >= 5:
            out[lo : lo + SECONDS_PER_DAY] = weekend_level
    return out


def linear_trend(duration_s: int, start: float = 1.0, end: float = 1.0) -> np.ndarray:
    """Linear multiplier from ``start`` to ``end`` (tournament build-up)."""
    duration_s = _check_duration(duration_s)
    return np.linspace(start, end, duration_s)


def flash_crowd(
    duration_s: int,
    at_s: float,
    ramp_s: float,
    hold_s: float,
    decay_s: float,
    amplitude: float,
) -> np.ndarray:
    """One flash-crowd bump: linear ramp, plateau, exponential decay.

    Returns an *additive* series that is 0 outside the event.  The paper's
    World Cup trace exhibits exactly these surges around matches.
    """
    duration_s = _check_duration(duration_s)
    if min(ramp_s, hold_s, decay_s) < 0 or amplitude < 0:
        raise ValueError("ramp/hold/decay/amplitude must be >= 0")
    out = np.zeros(duration_s)
    add_flash_crowd(out, at_s, ramp_s, hold_s, decay_s, amplitude)
    return out


def add_flash_crowd(
    out: np.ndarray,
    at_s: float,
    ramp_s: float,
    hold_s: float,
    decay_s: float,
    amplitude: float,
) -> None:
    """Add one flash crowd to ``out`` in place, touching only its window.

    Equivalent to ``out += flash_crowd(...)`` but O(event length) instead
    of O(trace length), which matters when synthesising months of load
    with dozens of events.
    """
    duration_s = len(out)
    ramp_end = at_s + ramp_s
    hold_end = ramp_end + hold_s
    # Truncate the exponential tail where it drops below 0.1 % of peak.
    tail = hold_end + (decay_s * math.log(1000.0) if decay_s > 0 else 0.0)
    lo = max(int(math.floor(at_s)), 0)
    hi = min(int(math.ceil(tail)) + 1, duration_s)
    if lo >= hi:
        return
    t = np.arange(lo, hi, dtype=float)
    seg = np.zeros(hi - lo)
    if ramp_s > 0:
        m = (t >= at_s) & (t < ramp_end)
        seg[m] = amplitude * (t[m] - at_s) / ramp_s
    m = (t >= ramp_end) & (t < hold_end)
    seg[m] = amplitude
    if decay_s > 0:
        m = t >= hold_end
        seg[m] = amplitude * np.exp(-(t[m] - hold_end) / decay_s)
    out[lo:hi] += seg


def bursts(
    duration_s: int,
    events: Sequence[Tuple[float, float]],
    ramp_s: float = 900.0,
    hold_s: float = 5400.0,
    decay_s: float = 1800.0,
) -> np.ndarray:
    """Sum of flash crowds; ``events`` is ``[(start_s, amplitude), ...]``."""
    duration_s = _check_duration(duration_s)
    out = np.zeros(duration_s)
    for at_s, amp in events:
        add_flash_crowd(out, at_s, ramp_s, hold_s, decay_s, amp)
    return out


def micro_bursts(
    duration_s: int,
    rng: np.random.Generator,
    rate_per_day: float = 3.0,
    amplitude: float = 0.4,
    amplitude_sigma: float = 0.5,
    day_dispersion: float = 0.0,
) -> np.ndarray:
    """Minute-scale random surges, as a *multiplicative* series around 1.

    Real web traffic (and the World Cup logs in particular) exhibits
    short-lived surges — news pushes, goal notifications — lasting minutes.
    Each burst multiplies the base load by ``1 + a`` with
    ``a ~ amplitude * lognormal(amplitude_sigma)``, ramping over 30-120 s,
    holding 1-10 min and decaying over 2-10 min.  These bursts are what
    separates a look-ahead-max provisioner from a clairvoyant per-second
    one.

    ``day_dispersion > 0`` makes burstiness *heterogeneous across days*:
    each day's event rate is ``rate_per_day`` scaled by a
    gamma(1/dispersion, dispersion) multiplier (mean 1), so some days are
    quiet and a heavy tail of days storms — which is exactly what spreads
    the per-day overhead band in the paper's Fig. 5.
    """
    duration_s = _check_duration(duration_s)
    if rate_per_day < 0 or amplitude < 0:
        raise ValueError("rate_per_day and amplitude must be >= 0")
    if day_dispersion < 0:
        raise ValueError("day_dispersion must be >= 0")
    out = np.zeros(duration_s)
    n_days = max(1, math.ceil(duration_s / SECONDS_PER_DAY))
    for day in range(n_days):
        day_start = day * SECONDS_PER_DAY
        day_len = min(SECONDS_PER_DAY, duration_s - day_start)
        rate = rate_per_day * day_len / SECONDS_PER_DAY
        if day_dispersion > 0:
            shape = 1.0 / day_dispersion
            rate *= rng.gamma(shape, day_dispersion)
        for _ in range(rng.poisson(rate)):
            at = day_start + rng.uniform(0, day_len)
            amp = amplitude * rng.lognormal(
                -0.5 * amplitude_sigma**2, amplitude_sigma
            )
            add_flash_crowd(
                out,
                at_s=at,
                ramp_s=rng.uniform(30, 120),
                hold_s=rng.uniform(60, 600),
                decay_s=rng.uniform(120, 600),
                amplitude=amp,
            )
    return 1.0 + out


def multiplicative_noise(
    duration_s: int,
    rng: np.random.Generator,
    sigma: float = 0.05,
) -> np.ndarray:
    """I.i.d. lognormal multiplier with relative spread ``sigma``."""
    duration_s = _check_duration(duration_s)
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return np.ones(duration_s)
    return rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=duration_s)


def heteroskedastic_noise(
    duration_s: int,
    rng: np.random.Generator,
    sigma: float = 0.08,
    day_dispersion: float = 0.0,
    day_sigma_cap: Optional[float] = None,
) -> np.ndarray:
    """White log-normal noise whose volatility varies *per day*.

    Each day ``d`` gets its own relative spread
    ``sigma_d = sigma * lognormal(day_dispersion)`` — most days are calm,
    a heavy tail of days is turbulent.  Per-day volatility differences are
    what spread the per-day overhead of a look-ahead-max provisioner over
    a clairvoyant one (Fig. 5's 6.8 %..161 % band).  ``day_sigma_cap``
    bounds the per-day spread so a freak noise draw cannot dwarf the
    structural (final-match) peak of the composed trace.
    """
    duration_s = _check_duration(duration_s)
    if sigma < 0 or day_dispersion < 0:
        raise ValueError("sigma and day_dispersion must be >= 0")
    if sigma == 0:
        return np.ones(duration_s)
    n_days = max(1, math.ceil(duration_s / SECONDS_PER_DAY))
    if day_dispersion > 0:
        day_sigma = sigma * rng.lognormal(
            -0.5 * day_dispersion**2, day_dispersion, size=n_days
        )
    else:
        day_sigma = np.full(n_days, sigma)
    if day_sigma_cap is not None:
        day_sigma = np.minimum(day_sigma, day_sigma_cap)
    sig_t = np.repeat(day_sigma, SECONDS_PER_DAY)[:duration_s]
    z = rng.standard_normal(duration_s)
    return np.exp(sig_t * z - 0.5 * sig_t**2)


#: Samples per block of :func:`ar1_noise`'s recurrence: the Python floats
#: alive at once stay bounded whatever the trace length.
_BLOCK = 1 << 16


def _ar1_steps(values, corr, acc):
    """Yield ``acc = corr * acc + x`` for each ``x`` of ``values``."""
    for x in values:
        acc = corr * acc + x
        yield acc


def ar1_noise(
    duration_s: int,
    rng: np.random.Generator,
    sigma: float = 0.05,
    corr: float = 0.999,
) -> np.ndarray:
    """Smooth (AR(1)) multiplicative noise around 1.

    Real request-rate noise is strongly autocorrelated second to second;
    ``corr`` close to 1 gives minute-scale wiggle instead of white noise.
    """
    duration_s = _check_duration(duration_s)
    if not 0 <= corr < 1:
        raise ValueError("corr must be in [0, 1)")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return np.ones(duration_s)
    y = rng.normal(0.0, sigma * math.sqrt(1 - corr**2), size=duration_s)
    # y[n] = corr * y[n-1] + e[n], overwriting the innovations block by
    # block.  Each step rounds twice, exactly as lfilter([1.0], [1.0,
    # -corr], e) does, so the output is bit-identical to it without
    # importing scipy.signal, which costs about a second per process
    # (DESIGN.md, "synthesis without scipy.signal").
    corr = float(corr)
    acc = 0.0
    for lo in range(0, duration_s, _BLOCK):
        hi = min(lo + _BLOCK, duration_s)
        y[lo:hi] = np.fromiter(
            _ar1_steps(y[lo:hi].tolist(), corr, acc), float, hi - lo
        )
        acc = y[hi - 1].item()
    return np.maximum(1.0 + y, 0.0)


def compose(
    base: np.ndarray,
    multipliers: Iterable[np.ndarray] = (),
    addends: Iterable[np.ndarray] = (),
) -> np.ndarray:
    """``base * prod(multipliers) + sum(addends)``, clipped at 0."""
    out = np.asarray(base, dtype=float).copy()
    for m in multipliers:
        if len(m) != len(out):
            raise ValueError("multiplier length mismatch")
        out *= m
    for a in addends:
        if len(a) != len(out):
            raise ValueError("addend length mismatch")
        out += a
    np.maximum(out, 0.0, out=out)
    return out


def make_trace(
    values: np.ndarray,
    name: str,
    timestep: float = 1.0,
    t0: float = 0.0,
) -> LoadTrace:
    """Wrap a composed array into a :class:`LoadTrace`."""
    return LoadTrace(values, timestep, name, t0)
