"""Vectorised power evaluation and energy accounting.

The hot path of every replay is "power of combination C at load L(t)" for
millions of t.  Under the linear model this is a piecewise-linear,
concave-increasing function of the served load (machines are filled by
increasing marginal cost), so each combination reduces to a breakpoint
table evaluated with :func:`numpy.interp`.  Tables are memoised per
combination (combinations are frozen/hashable).

:class:`EnergyMeter` is the per-machine ledger used by the event-driven
validation simulator (:mod:`repro.sim.machine`); the fast path never needs
it.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from math import copysign, frexp, inf, ldexp
from typing import Any, Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from ..core.combination import Combination

__all__ = [
    "power_breakpoints",
    "combination_power",
    "breakpoint_cache_stats",
    "TelemetryLRU",
    "EnergyMeter",
]

_BreakTable = Tuple[np.ndarray, np.ndarray]

#: Elements per settle block (:meth:`EnergyMeter._fold`): the settle's
#: only buffer, whatever the trace length.
_FOLD_BLOCK = 1 << 16

#: ``2**e * _TOP`` is ``2**e - 2u``, two ulps below the top of the binade
#: ``[2**(e-1), 2**e)``, whose ulp is ``u = 2**(e-53)``.
_TOP = 1.0 - 2.0**-52

#: The smallest positive normal float.
_MIN_NORMAL = sys.float_info.min


def _repeat_add(total: float, c: float, n: int) -> float:
    """``total`` after ``n`` successive float adds of ``c``.

    Needs ``c`` positive, finite and normal, and ``total`` finite and not
    negative.  Inside one binade ``[2**(e-1), 2**e)`` every float is a
    multiple of the ulp ``u = 2**(e-53)``, so each add rounds to the same
    multiple ``d`` of ``u``, but for a half-ulp tie from an odd total:
    that one rounds to the even neighbour, and every later total is even
    and adds the same ``d``.  So once two real adds agree inside one
    binade, ``k`` more adds are exactly ``b + k*d`` while that stays at or
    below ``2**e - 2u``; the adds across the binade edge are taken one
    by one.
    """
    while n > 1 and total < inf:
        a = total + c
        b = a + c
        n -= 2
        e = frexp(b)[1]
        d = b - a
        if total >= ldexp(0.5, e) and a - total == d:
            k = n
            if d:
                u = ldexp(1.0, e - 53)
                k = int((ldexp(_TOP, e) - b) / u) // int(d / u)
                k = 0 if k < 0 else n if k > n else k
            total = b + k * d
            n -= k
        else:
            total = b
    return total + c if n else total


def _cumsum_block(buf: np.ndarray, pos: int, total: float) -> float:
    """``total`` plus ``buf[1:pos]``, added left to right."""
    buf[0] = total
    view = buf[:pos]
    view.cumsum(out=view)
    return view.item(-1)


class TelemetryLRU:
    """Bounded LRU memo with ``table_cache_*``-style telemetry.

    Long multi-scenario runs (ablation sweeps, powercap searches) visit an
    unbounded stream of distinct keys; unbounded module-level dicts grew
    without limit.  This cache evicts least-recently-used entries past
    ``maxsize`` and exposes hit/miss counters following the
    ``table_cache_hits``/``table_cache_misses`` telemetry convention of
    :class:`repro.core.bml.BMLInfrastructure`.  It backs both the
    per-combination breakpoint tables here and the per-serving-set
    composite kernels of :mod:`repro.sim.loadbalancer`.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> Any:
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def pop(self, key: Hashable) -> Any:
        """Drop one entry (damaged-entry eviction); counters untouched."""
        return self._data.pop(key, None)

    def items(self) -> List[Tuple[Hashable, Any]]:
        """Every ``(key, value)``, least recent first; counters untouched."""
        return list(self._data.items())

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        return {
            "table_cache_hits": self.hits,
            "table_cache_misses": self.misses,
            "table_cache_size": len(self._data),
            "table_cache_maxsize": self.maxsize,
        }


_cache = TelemetryLRU()


def breakpoint_cache_stats() -> Dict[str, int]:
    """Hit/miss/size telemetry of the breakpoint-table LRU."""
    return _cache.stats()


def power_breakpoints(combo: Combination) -> _BreakTable:
    """Breakpoints ``(loads, powers)`` of the combination's power function.

    ``powers[0]`` is the all-idle draw; subsequent points add each
    architecture group's capacity in increasing-slope order.  Evaluating
    with :func:`numpy.interp` gives the minimal power for any served load
    in ``[0, capacity]``.
    """
    cached = _cache.get(combo)
    if cached is not None:
        return cached
    caps = [0.0]
    powers = [combo.idle_power]
    for prof, count in sorted(combo.items, key=lambda pc: pc[0].slope):
        group_cap = prof.max_perf * count
        caps.append(caps[-1] + group_cap)
        powers.append(powers[-1] + prof.slope * group_cap)
    table = (np.asarray(caps), np.asarray(powers))
    _cache.put(combo, table)
    return table


def combination_power(
    combo: Combination, load: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """Power (W) of ``combo`` serving ``load`` (scalar or vector).

    Loads beyond capacity saturate at peak power (the excess demand is the
    QoS accounting's business, not the power model's).
    """
    caps, powers = power_breakpoints(combo)
    out = np.interp(np.asarray(load, dtype=float), caps, powers)
    return float(out) if np.ndim(load) == 0 else out


@dataclass
class EnergyMeter:
    """Per-machine energy ledger for the event-driven simulator.

    Mimics the role of the paper's wattmeters/Kwapi: every state interval
    of every machine is recorded as (power, duration) and integrated
    exactly.

    The reference replay calls :meth:`set_power` once per machine per
    second.  The two-phase replay batches instead, through
    :meth:`begin_batch` / :meth:`batch_mark` /
    :meth:`record_batch_windows`: between ``begin_batch`` and
    ``record_batch_windows`` every ``set_power`` call is *journaled*
    instead of settled, interleaved with window markers
    (:meth:`batch_mark`), so the control pass touches no ledger math at
    all.  ``record_batch_windows`` walks the journal in chronological
    order — transitions as ``set_power`` would settle them, markers
    extending window-long runs of the per-second powers, committed as
    ``(values, inverse)`` gathers or constant runs — into per-machine
    *pending* streams, settled when something needs the totals
    (:meth:`finalize` or an energy query) by a **fold** per machine
    (:meth:`_fold`): constant runs by exact repeated-addition steps
    (:func:`_repeat_add`), everything else by ``np.cumsum`` over
    fixed-size blocks, each carrying the running total in its first
    element, so no buffer grows with the trace.  A ``set_power`` on a
    machine with a pending stream appends its closing term to the
    stream.  Both add every element in stream order, replaying the
    per-second ``set_power`` chain float-for-float, so totals stay
    bit-identical.
    """

    _totals: Dict[str, float] = field(default_factory=dict)
    _power_now: Dict[str, float] = field(default_factory=dict)
    _since: Dict[str, float] = field(default_factory=dict)
    #: machine -> ordered closed contributions awaiting settlement: a
    #: ``float`` is one scalar term (an interval's ``power * duration``),
    #: a ``(values, inverse, n_closed)`` tuple is a run's first
    #: ``n_closed`` per-second powers (``values[inverse]`` order), or
    #: ``n_closed`` repeats of ``values`` when it is a Python ``float``.
    _pending: Dict[str, List] = field(default_factory=dict, repr=False)
    #: Open journal (two-phase control pass), or ``None`` when live.  A
    #: ``(machine_id, power, now)`` tuple is a journaled ``set_power``;
    #: any other entry is an opaque window marker for
    #: ``record_batch_windows``'s resolver.
    _batch: Optional[List] = field(default=None, repr=False)

    # -- journal mode (two-phase replay) ------------------------------------
    def begin_batch(self) -> None:
        """Start journaling: ``set_power`` buffers instead of settling."""
        if self._batch is not None:
            raise RuntimeError("a batch journal is already open")
        self._batch = []

    def batch_mark(self, token) -> None:
        """Append an opaque window marker to the open journal."""
        if self._batch is None:
            raise RuntimeError("no batch journal open")
        self._batch.append(token)

    def record_batch_windows(self, resolve) -> None:
        """Close the journal and settle it with run-coalesced gathers.

        ``resolve(token)`` returns the marker's evaluated gather bundle
        ``(machine_ids, draws, inverse, offset, length, t_start)`` —
        per-machine series ``draws[i][offset:offset+length]``, or
        ``draws[i][inverse[offset:offset+length]]`` when ``inverse`` is
        given, where a Python ``float`` ``draws[i]`` stands for a constant
        column of that value.  The meter walks the journal inline, giving
        each machine one open *run* at a time: one draw over consecutive
        seconds, committed to its pending stream as one piece when
        something else comes.  A run lasts to the end of the window it is
        on, and a window is extended, not replaced, by a marker with the
        same ``machine_ids``, ``draws`` and ``inverse`` objects that
        follows it in both offset and time.  While no ``set_power`` has
        committed one of its runs, such a marker costs no per-machine
        work: every run on the window grows with it.  Otherwise each
        machine's run carries on into the marker when the marker follows
        it in time, with the same buffers at the next offset or a
        constant equal to the run's in value and sign; any other run is
        committed first.  Carrying a run on keeps the chain floats:
        between two adjacent pieces the unmerged chain would append the
        closing term ``power * 1.0`` — bitwise the same float the merged
        run already holds at that position — so pending streams, and
        therefore settled totals, stay bit-identical to the per-window
        replay (pinned by ``tests/properties/test_prop_replay.py`` and
        ``tests/properties/test_prop_settle.py``).  The producer decides
        once per draw array whether it is constant, so the walk does no
        NumPy scalar work for constant columns.
        """
        journal = self._batch
        if journal is None:
            raise RuntimeError("no batch journal open")
        self._batch = None
        totals = self._totals
        power_now = self._power_now
        since = self._since
        pending = self._pending
        # machine -> [power_now, since, pieces, open_tail, run]: one dict
        # probe per journal step instead of one per meter attribute.
        # ``run`` is the machine's open run ``[draw, inverse, offset,
        # t_start, window]``, which ends where ``window``, a ``[ids,
        # draws, inverse, end offset, end time]`` list, ends.
        # ``open_tail`` flags that the last pending piece is a window
        # tuple whose open (unclosed) element still backs the machine's
        # current power — a closing term of duration exactly 1.0 for
        # such a machine is bitwise the open element itself (``x * 1.0``
        # preserves bits for finite x), so the tuple's ``n_closed`` is
        # bumped instead of appending the scalar: same chain floats,
        # one piece fewer.
        class _States(dict):
            def __missing__(self, machine_id: str) -> list:
                rec = self[machine_id] = [
                    power_now.get(machine_id), since.get(machine_id),
                    pending.get(machine_id), False, None,
                ]
                return rec

        st = _States()

        def close(machine_id: str, rec: list, now) -> None:
            """Close the open interval at ``now``, as ``set_power`` does:
            eager machines settle it into the totals (``_scalar_settle``
            inlined), deferred ones append its term to the stream."""
            prev_power = rec[0]
            if prev_power is None:
                return
            s = rec[1]
            if now < s - 1e-9:
                raise ValueError(f"time went backwards for {machine_id}")
            dur = now - s
            pieces = rec[2]
            if pieces is None:
                totals[machine_id] = (
                    totals.get(machine_id, 0.0) + prev_power * dur
                )
            elif dur == 1.0 and rec[3]:
                values, inv, n_closed = pieces[-1]
                pieces[-1] = (values, inv, n_closed + 1)
            else:
                pieces.append(prev_power * dur)

        def commit(machine_id: str, rec: list, run: list) -> None:
            base, invb, off, t0, on = run
            n = on[4] - t0
            close(machine_id, rec, t0)
            pieces = rec[2]
            if pieces is None:
                pieces = rec[2] = []
            if type(base) is float:
                if n > 1:
                    pieces.append((base, None, n - 1))
                rec[0] = base
            else:
                last = off + n - 1
                if invb is None:
                    if n > 1:
                        pieces.append((base[off:off + n], None, n - 1))
                    rec[0] = base.item(last)
                else:
                    if n > 1:
                        pieces.append((base, invb[off:off + n], n - 1))
                    rec[0] = base.item(invb.item(last))
            rec[3] = n > 1
            rec[1] = t0 + n - 1

        window = None  # the last marker's window
        intact = False  # every machine of ``window`` has its run on it
        try:
            for entry in journal:
                if type(entry) is tuple:
                    machine_id, power, now = entry
                    if power < 0:
                        raise ValueError("power must be >= 0")
                    rec = st[machine_id]
                    run = rec[4]
                    if run is not None:
                        rec[4] = None
                        if run[4] is window:
                            intact = False
                        commit(machine_id, rec, run)
                    close(machine_id, rec, now)
                    rec[3] = False
                    rec[0] = power
                    rec[1] = now
                    continue
                machine_ids, draws, inverse, off, n, t0 = resolve(entry)
                if n <= 0:
                    continue
                if (
                    window is not None
                    and window[3] == off
                    and window[4] == t0
                    and window[1] is draws
                    and window[0] is machine_ids
                    and window[2] is inverse
                ):
                    window[3] = off + n
                    window[4] = t0 + n
                    if intact:
                        continue
                else:
                    window = [machine_ids, draws, inverse, off + n, t0 + n]
                for machine_id, base in zip(machine_ids, draws):
                    rec = st[machine_id]
                    run = rec[4]
                    if run is not None:
                        on = run[4]  # the window the run ends with
                        if on is window:
                            continue
                        if on[4] == t0 and (
                            run[0] is base
                            and run[1] is inverse
                            and on[3] == off
                            or type(base) is float
                            and type(run[0]) is float
                            and run[0] == base
                            and (
                                base
                                or copysign(1.0, run[0]) == copysign(1.0, base)
                            )
                        ):
                            run[4] = window
                            continue
                        commit(machine_id, rec, run)
                    rec[4] = [base, inverse, off, t0, window]
                intact = True
            for machine_id, rec in st.items():
                run = rec[4]
                if run is not None:
                    rec[4] = None
                    commit(machine_id, rec, run)
        finally:
            # Fold the walked state back into the meter (also on error,
            # matching the in-place mutation of the unbatched path).
            for machine_id, rec in st.items():
                if rec[0] is not None:
                    power_now[machine_id] = rec[0]
                    since[machine_id] = rec[1]
                if rec[2] is not None:
                    pending[machine_id] = rec[2]

    def set_power(self, machine_id: str, power: float, now: float) -> None:
        """Machine ``machine_id`` draws ``power`` Watts from ``now`` on."""
        if power < 0:
            raise ValueError("power must be >= 0")
        if self._batch is not None:
            self._batch.append((machine_id, power, now))
            return
        pieces = self._pending.get(machine_id)
        if pieces is None:
            self._scalar_settle(machine_id, now)
        else:
            # Deferred machine: buffer the closing interval's term instead
            # of settling — same ``power * duration`` float op, added in
            # sequence order at flush time.
            since = self._since[machine_id]
            if now < since - 1e-9:
                raise ValueError(f"time went backwards for {machine_id}")
            pieces.append(self._power_now[machine_id] * (now - since))
        self._power_now[machine_id] = power
        self._since[machine_id] = now

    @staticmethod
    def _fold(total: float, pieces: List) -> float:
        """``total`` plus a stream's closed contributions, in stream order.

        A constant run of a positive normal constant onto a finite,
        non-negative total is added by :func:`_repeat_add`'s exact
        repeated-addition steps.  Everything else is added in blocks of
        :data:`_FOLD_BLOCK` elements: slot 0 of each block carries the
        running total, run tuples become slice/gather writes straight
        into the block (other constants scalar fills), and one
        ``cumsum`` settles the block.  ``cumsum`` over a 1-D float64
        array adds strictly left to right, and a scalar term met with an
        empty block is one float add, so every element is added in
        stream order — bit-identical to folding the contributions in as
        they happened — with one block of memory whatever the stream
        length.
        """
        end = _FOLD_BLOCK + 1
        buf = np.empty(end)
        pos = 1
        for piece in pieces:
            if type(piece) is not tuple:
                if pos == 1:
                    total += piece
                    continue
                buf[pos] = piece
                pos += 1
                n = 0
            else:
                values, inverse, n = piece
                if type(values) is float and _MIN_NORMAL <= values < inf:
                    if pos > 1:
                        total = _cumsum_block(buf, pos, total)
                        pos = 1
                    if 0.0 <= total < inf:
                        total = _repeat_add(total, values, n)
                        continue
            i = 0
            while True:
                if pos == end:
                    total = _cumsum_block(buf, end, total)
                    pos = 1
                if not n:
                    break
                take = end - pos if end - pos < n else n
                dst = buf[pos:pos + take]
                if type(values) is float:
                    dst.fill(values)
                elif inverse is None:
                    dst[:] = values[i:i + take]
                else:
                    values.take(inverse[i:i + take], out=dst)
                i += take
                n -= take
                pos += take
        if pos > 1:
            total = _cumsum_block(buf, pos, total)
        return total

    def _flush(self, machine_id: str) -> None:
        """Settle a machine's buffered contributions (one fold)."""
        pieces = self._pending.pop(machine_id, None)
        if not pieces:
            return
        self._totals[machine_id] = self._fold(
            self._totals.get(machine_id, 0.0), pieces
        )

    def _flush_all(self) -> None:
        """Settle every machine's buffered stream, machine by machine.

        Each stream is folded on its own (:meth:`_fold`), so no buffer
        ever spans the trace: memory is one block per flush.
        """
        for machine_id in list(self._pending):
            self._flush(machine_id)

    def _scalar_settle(self, machine_id: str, now: float) -> None:
        prev_power = self._power_now.get(machine_id)
        if prev_power is None:
            return
        since = self._since[machine_id]
        if now < since - 1e-9:
            raise ValueError(f"time went backwards for {machine_id}")
        self._totals[machine_id] = self._totals.get(machine_id, 0.0) + prev_power * (
            now - since
        )

    def _settle(self, machine_id: str, now: float) -> None:
        if machine_id in self._pending:
            self._flush(machine_id)
        self._scalar_settle(machine_id, now)

    def finalize(self, now: float) -> None:
        """Close all open intervals at ``now`` (end of simulation)."""
        self._flush_all()
        for machine_id in list(self._power_now):
            self._settle(machine_id, now)
            self._since[machine_id] = now

    def energy_of(self, machine_id: str) -> float:
        """Energy (J) accumulated so far by one machine."""
        if machine_id in self._pending:
            self._flush(machine_id)
        return self._totals.get(machine_id, 0.0)

    @property
    def total_energy(self) -> float:
        """Energy (J) accumulated by all machines (closed intervals only)."""
        self._flush_all()
        return sum(self._totals.values())
