"""Load traces: the time-varying application demand the scheduler replays.

A :class:`LoadTrace` is a 1 Hz series of the application performance metric
(requests/s for the paper's web server).  The paper replays days 6-92 of
the 1998 World Cup access logs; this module provides the generic container
(numpy-backed, CSV/NPZ round-trip, per-day views and statistics) while
:mod:`repro.workload.worldcup` synthesises the World-Cup-shaped workload.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "LoadTrace",
    "TraceError",
    "TraceIngestError",
    "SECONDS_PER_DAY",
    "SHM_PREFIX",
    "SharedTraceHandle",
    "share_trace",
    "attach_trace",
    "release_segment",
    "release_all_shared",
    "shm_stats",
]

SECONDS_PER_DAY = 86_400


class TraceError(ValueError):
    """Raised for malformed traces or out-of-range accesses."""


class TraceIngestError(TraceError):
    """Raised when reading a trace from disk fails.

    The one typed error every ingestion path (CSV, NPZ, WC98 archives)
    raises for bad input bytes — always carrying the file and the
    offending line/sample/byte offset, never a leaked numpy, zipfile or
    struct internal.
    """


@dataclass(frozen=True)
class LoadTrace:
    """An application load series sampled on a fixed time step.

    Parameters
    ----------
    values:
        Non-negative load samples (application metric per second).
    timestep:
        Seconds between samples (default 1.0, the paper's granularity).
    name:
        Free-form label used in reports.
    t0:
        Absolute start time in seconds (e.g. ``5 * 86400`` when the trace
        starts at day 6 of the World Cup, counting days from 1).
    """

    values: np.ndarray
    timestep: float = 1.0
    name: str = "trace"
    t0: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise TraceError(f"trace must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise TraceError("trace must contain at least one sample")
        if np.any(~np.isfinite(arr)):
            raise TraceError("trace contains non-finite samples")
        if np.any(arr < 0):
            raise TraceError("trace contains negative load")
        if self.timestep <= 0:
            raise TraceError("timestep must be > 0")
        if (
            arr.flags.writeable
            or arr.dtype != np.float64
            or not arr.flags.c_contiguous
        ):
            arr = np.array(arr, dtype=np.float64)  # always a fresh copy
            arr.flags.writeable = False
        # An already-read-only float64 array is adopted as-is: shared-
        # memory traces hand workers a read-only view of the segment, and
        # a defensive copy here would silently undo the zero-copy attach.
        object.__setattr__(self, "values", arr)

    # -- basics ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, idx: Union[int, slice]) -> Union[float, "LoadTrace"]:
        if isinstance(idx, slice):
            start, _, step = idx.indices(len(self))
            if step != 1:
                raise TraceError("strided slicing is not supported")
            vals = self.values[idx]
            if vals.size == 0:
                raise TraceError("empty slice")
            return LoadTrace(
                vals, self.timestep, self.name, self.t0 + start * self.timestep
            )
        return float(self.values[idx])

    @property
    def duration(self) -> float:
        """Trace duration in seconds."""
        return len(self.values) * self.timestep

    @property
    def peak(self) -> float:
        """Maximum load over the whole trace."""
        return float(np.max(self.values))

    @property
    def mean(self) -> float:
        """Mean load over the whole trace."""
        return float(np.mean(self.values))

    @property
    def total_demand(self) -> float:
        """Integral of the load (e.g. total requests over the trace)."""
        return float(np.sum(self.values) * self.timestep)

    def stats(self) -> dict:
        """Summary statistics used by reports."""
        v = self.values
        return {
            "name": self.name,
            "samples": int(v.size),
            "duration_s": self.duration,
            "peak": float(v.max()),
            "mean": float(v.mean()),
            "p50": float(np.percentile(v, 50)),
            "p95": float(np.percentile(v, 95)),
            "p99": float(np.percentile(v, 99)),
            "min": float(v.min()),
        }

    # -- day-level views ---------------------------------------------------
    @property
    def samples_per_day(self) -> int:
        spd = SECONDS_PER_DAY / self.timestep
        if abs(spd - round(spd)) > 1e-9:
            raise TraceError(
                f"timestep {self.timestep} does not divide a day evenly"
            )
        return int(round(spd))

    @property
    def n_days(self) -> int:
        """Number of (possibly partial) days covered."""
        return math.ceil(len(self.values) / self.samples_per_day)

    def day(self, index: int) -> "LoadTrace":
        """The ``index``-th day of the trace (0-based) as a sub-trace."""
        spd = self.samples_per_day
        if not 0 <= index < self.n_days:
            raise TraceError(f"day {index} out of range 0..{self.n_days - 1}")
        sl = self.values[index * spd : (index + 1) * spd]
        return LoadTrace(
            sl,
            self.timestep,
            f"{self.name}/day{index}",
            self.t0 + index * spd * self.timestep,
        )

    def days(self) -> Iterator["LoadTrace"]:
        """Iterate over per-day sub-traces."""
        for i in range(self.n_days):
            yield self.day(i)

    def per_day_max(self) -> np.ndarray:
        """Daily peak loads (vectorised; last partial day included)."""
        spd = self.samples_per_day
        n = len(self.values)
        full = n // spd
        out: List[float] = []
        if full:
            out.extend(self.values[: full * spd].reshape(full, spd).max(axis=1))
        if n % spd:
            out.append(float(self.values[full * spd :].max()))
        return np.asarray(out)

    def per_day_mean(self) -> np.ndarray:
        """Daily mean loads."""
        spd = self.samples_per_day
        n = len(self.values)
        full = n // spd
        out: List[float] = []
        if full:
            out.extend(self.values[: full * spd].reshape(full, spd).mean(axis=1))
        if n % spd:
            out.append(float(self.values[full * spd :].mean()))
        return np.asarray(out)

    # -- transforms ---------------------------------------------------------
    def scaled(self, factor: float) -> "LoadTrace":
        """Multiply the load by ``factor`` (capacity-planning what-ifs)."""
        if factor < 0:
            raise TraceError("scale factor must be >= 0")
        return LoadTrace(self.values * factor, self.timestep, self.name, self.t0)

    def scaled_to_peak(self, peak: float) -> "LoadTrace":
        """Rescale so the global maximum equals ``peak``."""
        cur = self.peak
        if cur <= 0:
            raise TraceError("cannot rescale an all-zero trace")
        return self.scaled(peak / cur)

    def clipped(self, max_value: float) -> "LoadTrace":
        """Clip the load from above (overload studies)."""
        return LoadTrace(
            np.minimum(self.values, max_value), self.timestep, self.name, self.t0
        )

    def resampled(self, new_step: float, how: str = "max") -> "LoadTrace":
        """Downsample to ``new_step`` seconds per sample.

        ``how="max"`` is conservative for provisioning (never hides a
        peak); ``how="mean"`` preserves total demand.  ``new_step`` must be
        an integer multiple of the current step.
        """
        ratio = new_step / self.timestep
        if ratio < 1 or abs(ratio - round(ratio)) > 1e-9:
            raise TraceError(
                f"new step {new_step} must be an integer multiple of {self.timestep}"
            )
        k = int(round(ratio))
        n = len(self.values)
        full = n // k
        head = self.values[: full * k].reshape(full, k)
        agg = head.max(axis=1) if how == "max" else head.mean(axis=1)
        if how not in ("max", "mean"):
            raise TraceError(f"unknown resampling {how!r}")
        tail = self.values[full * k :]
        if tail.size:
            agg = np.concatenate(
                [agg, [tail.max() if how == "max" else tail.mean()]]
            )
        return LoadTrace(agg, new_step, self.name, self.t0)

    def concatenated(self, other: "LoadTrace") -> "LoadTrace":
        """Append ``other`` (same timestep) after this trace."""
        if abs(other.timestep - self.timestep) > 1e-12:
            raise TraceError("timesteps differ")
        return LoadTrace(
            np.concatenate([self.values, other.values]),
            self.timestep,
            self.name,
            self.t0,
        )

    # -- io -------------------------------------------------------------------
    def to_csv(self, path: Union[str, Path]) -> None:
        """Write ``time,load`` rows (absolute seconds, one per sample)."""
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_s", "load"])
            t = self.t0
            for v in self.values:
                writer.writerow([f"{t:.6g}", f"{v:.10g}"])
                t += self.timestep

    @classmethod
    def from_csv(
        cls, path: Union[str, Path], name: Optional[str] = None
    ) -> "LoadTrace":
        """Read a trace written by :meth:`to_csv` (or any ``t,v`` CSV).

        Non-finite or negative rates raise :class:`TraceIngestError`
        naming the file and line, instead of the container's generic
        whole-trace validation error.
        """
        path = Path(path)
        times: List[float] = []
        vals: List[float] = []
        with path.open() as fh:
            reader = csv.reader(fh)
            for lineno, row in enumerate(reader, start=1):
                if not row:
                    continue
                try:
                    t, v = float(row[0]), float(row[1])
                except (ValueError, IndexError):
                    continue  # header or comment
                if not math.isfinite(v):
                    raise TraceIngestError(
                        f"{path}: line {lineno}: non-finite load {row[1]!r}"
                    )
                if v < 0:
                    raise TraceIngestError(
                        f"{path}: line {lineno}: negative load {v:g}"
                    )
                times.append(t)
                vals.append(v)
        if len(vals) < 1:
            raise TraceIngestError(f"no samples found in {path}")
        step = times[1] - times[0] if len(times) > 1 else 1.0
        return cls(np.asarray(vals), step, name or path.stem, times[0])

    def to_npz(self, path: Union[str, Path]) -> None:
        """Binary round-trip (compact, exact)."""
        np.savez_compressed(
            Path(path),
            values=self.values,
            timestep=self.timestep,
            t0=self.t0,
            name=np.asarray(self.name),
        )

    @classmethod
    def from_npz(cls, path: Union[str, Path]) -> "LoadTrace":
        """Load a trace written by :meth:`to_npz`.

        Truncated/corrupt archives and invalid rates raise
        :class:`TraceIngestError` with file and sample context instead
        of leaking numpy/zipfile internals.
        """
        import zipfile

        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                values = np.asarray(data["values"], dtype=float)
                timestep = float(data["timestep"])
                name = str(data["name"])
                t0 = float(data["t0"])
        except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise TraceIngestError(
                f"{path}: unreadable trace archive: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if values.ndim == 1 and values.size:
            bad = np.flatnonzero(~np.isfinite(values) | (values < 0))
            if bad.size:
                i = int(bad[0])
                raise TraceIngestError(
                    f"{path}: sample {i}: invalid load {values[i]!r}"
                )
        return cls(values, timestep, name, t0)


# ---------------------------------------------------------------------------
# Shared-memory trace distribution
# ---------------------------------------------------------------------------
#
# A suite fanned out over a process pool used to ship its traces by
# value: pickled through ``initargs`` under ``spawn`` (one 60 MB copy per
# worker for the 87-day trace) or rebuilt from scratch by each worker.
# These helpers put the rate array in a named ``multiprocessing``
# shared-memory segment instead: the dispatcher publishes it once per
# (host, workload) with :func:`share_trace`, ships only the tiny
# :class:`SharedTraceHandle`, and every worker maps the same physical
# pages with :func:`attach_trace` — zero copies, zero rebuilds,
# distribution cost independent of worker count.
#
# Lifecycle: the *creating* process owns the segment and must
# ``release_segment`` (unlink) it; attachers only hold mappings, which
# die with their process.  :func:`release_all_shared` is registered via
# ``atexit`` in any process that created a segment, so even an aborted
# dispatcher leaves ``/dev/shm`` clean.  Segment names carry
# :data:`SHM_PREFIX` so leak checks can find strays by name.

#: Every segment this module creates is named ``repro-trace-<pid>-<n>``.
SHM_PREFIX = "repro-trace-"

#: Segments created (and owned) by this process: name -> SharedMemory.
_OWNED: dict = {}

#: Foreign segments this process has mapped: name -> SharedMemory.
_ATTACHED: dict = {}

#: Attach memo: segment name -> the LoadTrace view handed out, so
#: repeated attaches of the same segment share one array object.
_ATTACH_MEMO: dict = {}

_SHM_SEQ = 0
_ATEXIT_ARMED = False


@dataclass(frozen=True)
class SharedTraceHandle:
    """A by-name reference to a trace published in shared memory.

    Pickles in ~100 bytes regardless of trace length — this is what
    travels through worker arguments and chunk payloads instead of the
    rate array itself.  ``attach_trace`` turns it back into a
    :class:`LoadTrace` whose values are a read-only view of the segment.
    """

    segment: str
    samples: int
    timestep: float
    name: str
    t0: float

    @property
    def nbytes(self) -> int:
        """Bytes of rate data the handle stands in for (float64)."""
        return self.samples * 8


def _arm_atexit() -> None:
    global _ATEXIT_ARMED
    if not _ATEXIT_ARMED:
        import atexit

        atexit.register(release_all_shared)
        _ATEXIT_ARMED = True


def share_trace(trace: LoadTrace) -> SharedTraceHandle:
    """Publish ``trace``'s rate array in a named shared-memory segment.

    The calling process becomes the segment's owner (responsible for
    :func:`release_segment`; an ``atexit`` hook backstops it).  Raises
    ``OSError`` when shared memory is unavailable — callers fall back to
    by-value shipping.
    """
    from multiprocessing import shared_memory

    global _SHM_SEQ
    _arm_atexit()
    values = trace.values
    while True:
        _SHM_SEQ += 1
        name = f"{SHM_PREFIX}{os.getpid()}-{_SHM_SEQ}"
        try:
            shm = shared_memory.SharedMemory(
                name=name, create=True, size=values.nbytes
            )
            break
        except FileExistsError:  # stale segment from a recycled pid
            continue
    buf = np.ndarray(values.shape, dtype=np.float64, buffer=shm.buf)
    buf[:] = values
    del buf  # no exported buffer may outlive close()
    _OWNED[name] = shm
    return SharedTraceHandle(
        segment=name,
        samples=int(values.size),
        timestep=trace.timestep,
        name=trace.name,
        t0=trace.t0,
    )


def attach_trace(handle: SharedTraceHandle) -> LoadTrace:
    """Materialise a :class:`LoadTrace` over the handle's segment.

    The values array is a *read-only view* of the shared pages — no
    copy, and :class:`LoadTrace` adopts it as-is.  Attaches are memoised
    per segment, so a worker replaying many chunks of one workload maps
    it once.  The mapping lives until :func:`release_segment` or process
    exit; the segment itself belongs to its creator.
    """
    from multiprocessing import shared_memory

    memo = _ATTACH_MEMO.get(handle.segment)
    if memo is not None:
        return memo
    shm = _OWNED.get(handle.segment) or _ATTACHED.get(handle.segment)
    if shm is None:
        try:
            shm = shared_memory.SharedMemory(name=handle.segment)
        except FileNotFoundError:
            raise TraceError(
                f"shared trace segment {handle.segment!r} no longer "
                "exists (was it released by its owner?)"
            ) from None
        # Python 3.11's ``SharedMemory`` registers attachments with the
        # resource tracker too (no ``track=`` parameter yet).  Suite
        # workers share the dispatcher's tracker: spawn passes its fd in
        # the preparation data, and fork children inherit it because
        # the dispatcher starts it before the first worker.  A tracker
        # of the worker's own would unlink the still-live segment when
        # that worker exits.  The shared tracker's cache is a set, so a
        # worker's duplicate register is a no-op and the owner's
        # ``unlink`` performs the single balanced unregister.
        # Unregistering here as well would make that unlink-time
        # unregister a noisy KeyError inside the tracker process.
        _ATTACHED[handle.segment] = shm
        _arm_atexit()
    arr = np.ndarray((handle.samples,), dtype=np.float64, buffer=shm.buf)
    arr.flags.writeable = False
    trace = LoadTrace(arr, handle.timestep, handle.name, handle.t0)
    _ATTACH_MEMO[handle.segment] = trace
    return trace


def _close_quietly(shm) -> None:
    try:
        shm.close()
    except BufferError:
        # A LoadTrace view of the buffer is still alive somewhere; the
        # mapping then simply lives until process exit.  The *name* is
        # already gone for owned segments (unlink precedes close), so
        # nothing leaks in /dev/shm either way.
        pass


def release_segment(handle_or_name) -> None:
    """Release one segment: unlink if this process owns it, unmap if it
    merely attached.  Idempotent — releasing twice (or releasing a
    segment someone else already unlinked) is a no-op."""
    name = getattr(handle_or_name, "segment", handle_or_name)
    _ATTACH_MEMO.pop(name, None)
    shm = _OWNED.pop(name, None)
    if shm is not None:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        _close_quietly(shm)
        return
    shm = _ATTACHED.pop(name, None)
    if shm is not None:
        _close_quietly(shm)


def release_all_shared() -> None:
    """Release every segment this process owns or has attached (the
    ``atexit`` backstop; safe to call any time)."""
    for name in list(_OWNED) + list(_ATTACHED):
        release_segment(name)


def shm_stats() -> dict:
    """This process's live shared memory: ``segments_live`` are segments
    it currently owns, ``segments_attached`` foreign segments it has
    mapped (the leak checks read both)."""
    return {"segments_live": len(_OWNED), "segments_attached": len(_ATTACHED)}
