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

from collections import OrderedDict
from dataclasses import dataclass, field
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

#: Deferred-ledger buffer bound: a machine's pending contribution stream
#: is settled early once it holds this many pieces, so month-scale
#: replays don't pin every segment's draw arrays until ``finalize``
#: (partial flushes continue the same sequential chain — bit-identical).
_PENDING_FLUSH_PIECES = 1024


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

    Three batch APIs serve the segment-compressed replays:

    * :meth:`record_series` — eager: one ``np.cumsum`` settle per call
      (PR 2's kernel, kept as the executable contract pinned by
      ``tests/properties/test_prop_replay.py``);
    * :meth:`record_gather` — deferred: per-segment windows are buffered
      as ``(values, inverse)`` gather pairs and settled in **one**
      ``np.cumsum`` pass per machine when something needs the totals
      (a ``set_power`` interleave, :meth:`finalize`, or an energy query),
      eliminating the per-machine-per-segment cumsum/concatenate cost.
      The buffered chain replays the exact ``record_series`` call
      sequence float-for-float, so totals stay bit-identical.
    * :meth:`begin_batch` / :meth:`batch_mark` /
      :meth:`record_batch_windows` — the two-phase replay's journal:
      between ``begin_batch`` and ``record_batch_windows`` every
      ``set_power`` call is *journaled* instead of settled, interleaved
      with window markers (:meth:`batch_mark`), so the control pass
      touches no ledger math at all.  ``record_batch_windows`` walks the
      journal in chronological order — transitions as ``set_power``
      would settle them, markers resolved to run-coalesced gathers of
      the same per-second powers :meth:`record_gather` would buffer —
      so batching stays bit-identical to recording live.
    """

    _totals: Dict[str, float] = field(default_factory=dict)
    _power_now: Dict[str, float] = field(default_factory=dict)
    _since: Dict[str, float] = field(default_factory=dict)
    #: machine -> ordered closed contributions awaiting settlement: a
    #: ``float`` is one scalar term (an interval's ``power * duration``),
    #: a ``(values, inverse, n_closed)`` tuple is a window's first
    #: ``n_closed`` per-second powers (``values[inverse]`` order).
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

        Instead of one :meth:`record_gather` call per (marker, machine),
        ``resolve(token)`` returns the marker's evaluated gather bundle
        ``(machine_ids, draws, inverse, offset, length, t_start)`` —
        per-machine series ``draws[i][offset:offset+length]``, or
        ``draws[i][inverse[offset:offset+length]]`` when ``inverse`` is
        given — and the meter walks the journal inline, *merging* each
        machine's consecutive windows that share the same evaluation
        buffers and are adjacent in both offset and time into a single
        gather piece.  Between two adjacent windows the unmerged chain
        would append the closing term ``power * 1.0`` — bitwise the same
        float the merged slice already contains at that position — so
        pending streams, and therefore settled totals, stay
        bit-identical to the per-window replay (pinned by
        ``tests/properties/test_prop_replay.py``).
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
        # probe per journal step instead of one per meter attribute (the
        # year replay walks ~10^6 steps; per-key dict churn was the
        # walk's main cost).  ``run`` is the machine's open gather run
        # ``[values_base, inverse_base, offset, length, t_start]``.
        # ``open_tail`` flags that the last pending piece is a window
        # tuple whose open (unclosed) element still backs the machine's
        # current power — a closing term of duration exactly 1.0 for
        # such a machine is bitwise the open element itself (``x * 1.0``
        # preserves bits for finite x), so the tuple's ``n_closed`` is
        # bumped instead of appending the scalar: same chain floats,
        # one piece fewer.
        st: Dict[str, list] = {}
        st_get = st.get
        pn_get = power_now.get
        sc_get = since.get
        pd_get = pending.get

        def commit(machine_id: str, rec: list, run: list) -> None:
            base, invb, off, n, t0 = run
            prev_power = rec[0]
            pieces = rec[2]
            if prev_power is not None:
                s = rec[1]
                if t0 < s - 1e-9:
                    raise ValueError(f"time went backwards for {machine_id}")
                dur = t0 - s
                if pieces is None:
                    totals[machine_id] = (
                        totals.get(machine_id, 0.0) + prev_power * dur
                    )
                elif dur == 1.0 and rec[3]:
                    values, inv, n_closed = pieces[-1]
                    pieces[-1] = (values, inv, n_closed + 1)
                else:
                    pieces.append(prev_power * dur)
            if pieces is None:
                pieces = rec[2] = []
            if invb is None:
                if n > 1:
                    # Constant-column windows arrive as stride-0 broadcast
                    # slices; when the previous piece is a stride-0 tuple
                    # holding the bitwise-same constant (the dur==1.0 bump
                    # above just absorbed the bridge element), extend its
                    # closed count instead of appending — the chain floats
                    # are identical, one piece fewer.  ``_fill_stream``
                    # only reads ``values[0]`` for stride-0 pieces, so
                    # ``n_closed`` may exceed ``len(values)``.
                    prev = pieces[-1] if pieces else None
                    c = base[off]
                    if (
                        base.strides == (0,)
                        and type(prev) is tuple
                        and prev[0].strides == (0,)
                        and len(prev[0])
                        and prev[0][0] == c
                        and np.signbit(prev[0][0]) == np.signbit(c)
                    ):
                        pieces[-1] = (prev[0], prev[1], prev[2] + n - 1)
                    else:
                        pieces.append((base[off:off + n], None, n - 1))
                    rec[3] = True
                else:
                    rec[3] = False
                rec[0] = float(base[off + n - 1])
            else:
                if n > 1:
                    prev = pieces[-1] if pieces else None
                    if (
                        base.strides == (0,)
                        and type(prev) is tuple
                        and prev[0].strides == (0,)
                        and len(prev[0])
                        and prev[0][0] == base[0]
                        and np.signbit(prev[0][0]) == np.signbit(base[0])
                    ):
                        pieces[-1] = (prev[0], prev[1], prev[2] + n - 1)
                    else:
                        pieces.append((base, invb[off:off + n], n - 1))
                    rec[3] = True
                else:
                    rec[3] = False
                rec[0] = float(base[invb[off + n - 1]])
            rec[1] = t0 + n - 1

        try:
            for entry in journal:
                if type(entry) is tuple:
                    machine_id, power, now = entry
                    if power < 0:
                        raise ValueError("power must be >= 0")
                    rec = st_get(machine_id)
                    if rec is None:
                        rec = st[machine_id] = [
                            pn_get(machine_id), sc_get(machine_id),
                            pd_get(machine_id), False, None,
                        ]
                    run = rec[4]
                    if run is not None:
                        rec[4] = None
                        commit(machine_id, rec, run)
                    prev_power = rec[0]
                    pieces = rec[2]
                    if pieces is None:
                        # Eager machine: settle the closing interval
                        # directly into the totals (``_scalar_settle``
                        # inlined against the state record).
                        if prev_power is not None:
                            s = rec[1]
                            if now < s - 1e-9:
                                raise ValueError(
                                    f"time went backwards for {machine_id}"
                                )
                            totals[machine_id] = (
                                totals.get(machine_id, 0.0)
                                + prev_power * (now - s)
                            )
                    else:
                        s = rec[1]
                        if now < s - 1e-9:
                            raise ValueError(
                                f"time went backwards for {machine_id}"
                            )
                        dur = now - s
                        if dur == 1.0 and rec[3]:
                            values, inv, n_closed = pieces[-1]
                            pieces[-1] = (values, inv, n_closed + 1)
                        else:
                            pieces.append(prev_power * dur)
                    rec[3] = False
                    rec[0] = power
                    rec[1] = now
                else:
                    machine_ids, draws, inverse, off, n, t0 = resolve(entry)
                    if n <= 0:
                        continue
                    for i, machine_id in enumerate(machine_ids):
                        rec = st_get(machine_id)
                        if rec is None:
                            rec = st[machine_id] = [
                                pn_get(machine_id), sc_get(machine_id),
                                pd_get(machine_id), False, None,
                            ]
                        run = rec[4]
                        base = draws[i]
                        if (
                            run is not None
                            and run[0] is base
                            and run[1] is inverse
                            and run[2] + run[3] == off
                            and run[4] + run[3] == t0
                        ):
                            run[3] += n
                        else:
                            if run is not None:
                                commit(machine_id, rec, run)
                            rec[4] = [base, inverse, off, n, t0]
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

    def record_series(
        self, machine_id: str, powers: np.ndarray, t_start: int
    ) -> None:
        """Batch ledger write: one power level per second from ``t_start``.

        Equivalent to ``set_power(machine_id, powers[k], t_start + k)`` for
        every ``k`` — the per-second call pattern of the event-driven
        simulator's load balancer — but with the million-call Python loop
        replaced by one vectorised append per (machine, segment).  The
        closed one-second intervals are accumulated with
        :func:`numpy.cumsum`, whose left-to-right sequential order matches
        the scalar ``_settle`` chain exactly, so the resulting totals are
        bit-identical to the per-call ledger.
        """
        powers = np.asarray(powers, dtype=float)
        n = len(powers)
        if n == 0:
            return
        if np.any(powers < 0):
            raise ValueError("power must be >= 0")
        self._settle(machine_id, t_start)
        if n > 1:
            # Seconds t_start..t_start+n-2 are closed by the next write;
            # each contributes powers[k] * 1.0 in time order.
            base = self._totals.get(machine_id, 0.0)
            self._totals[machine_id] = float(
                np.cumsum(np.concatenate(([base], powers[:-1])))[-1]
            )
        self._power_now[machine_id] = float(powers[-1])
        self._since[machine_id] = t_start + n - 1

    # -- deferred array ledger (serving-set kernel path) -------------------
    def record_gather(
        self,
        machine_id: str,
        values: np.ndarray,
        inverse: Optional[np.ndarray],
        t_start: int,
    ) -> None:
        """Deferred :meth:`record_series`: buffer now, settle lazily.

        The per-second power series of the window is ``values[inverse]``
        (``inverse`` of ``None`` means ``values`` *is* the series) — the
        gather representation the serving-set kernel produces, buffered
        by reference so no per-second array is materialised per segment.
        The window's first ``n - 1`` seconds are closed contributions
        appended to the machine's pending stream; the last second stays
        the open interval, closed by the next write exactly as in the
        eager chain.  Interleaved :meth:`set_power` calls append their
        ``power * duration`` term to the same stream, so nothing settles
        until :meth:`finalize` (or an energy query) runs the machine's
        whole stream through **one** ``np.cumsum`` — whose left-to-right
        order replays the eager per-segment sequence float-for-float.

        Trusted-contract API for the segment engine: ``values`` must be
        non-negative (kernel draws are ``idle + slope * load`` with
        non-negative factors by construction).
        """
        n = len(values) if inverse is None else len(inverse)
        if n == 0:
            return
        pieces = self._pending.get(machine_id)
        prev_power = self._power_now.get(machine_id)
        if prev_power is not None:
            since = self._since[machine_id]
            if t_start < since - 1e-9:
                raise ValueError(f"time went backwards for {machine_id}")
            closing = prev_power * (t_start - since)
            if pieces is None:
                # First deferred write: fold the closing term eagerly
                # (same multiply-add record_series would do) and open the
                # stream.
                self._totals[machine_id] = (
                    self._totals.get(machine_id, 0.0) + closing
                )
            else:
                pieces.append(closing)
        if pieces is None:
            pieces = self._pending[machine_id] = []
        if n > 1:
            pieces.append((values, inverse, n - 1))
        self._power_now[machine_id] = float(
            values[-1] if inverse is None else values[inverse[-1]]
        )
        self._since[machine_id] = t_start + n - 1
        # Bound the buffer: month-scale replays would otherwise pin every
        # segment's draw arrays until finalize.  A partial flush continues
        # the same sequential chain from the settled total, so totals stay
        # bit-identical to one flush at the end.  All machines settle
        # together so the stacked cumsum amortises the pass (other
        # machines' streams flush early, which is equally bit-identical).
        if len(pieces) >= _PENDING_FLUSH_PIECES:
            self._flush_all()

    @staticmethod
    def _stream_length(pieces: List) -> int:
        """Closed contributions in a buffered stream (chain elements)."""
        total = 0
        for piece in pieces:
            total += piece[2] if type(piece) is tuple else 1
        return total

    @staticmethod
    def _fill_stream(chain: np.ndarray, pos: int, pieces: List) -> int:
        """Write a stream's closed contributions into ``chain`` at ``pos``.

        Window tuples become contiguous slice/gather writes straight into
        the destination (no intermediate per-piece arrays); broadcast
        constant columns (stride-0 draws from the kernel's constant-column
        elision) become scalar fills.  Element order is exactly the
        buffered order, so the chain is the same vector
        piece-by-piece concatenation would produce.
        """
        for piece in pieces:
            if type(piece) is tuple:
                values, inverse, n_closed = piece
                end = pos + n_closed
                if values.strides == (0,):
                    chain[pos:end] = values[0] if len(values) else 0.0
                elif inverse is None:
                    chain[pos:end] = values[:n_closed]
                else:
                    np.take(values, inverse[:n_closed], out=chain[pos:end])
                pos = end
            else:
                chain[pos] = piece
                pos += 1
        return pos

    def _flush(self, machine_id: str) -> None:
        """Settle a machine's buffered contributions in one cumsum pass."""
        pieces = self._pending.pop(machine_id, None)
        if not pieces:
            return
        # One sequential left-to-right accumulation over every closed
        # contribution — bit-identical to folding them in as they happened.
        chain = np.empty(1 + self._stream_length(pieces))
        chain[0] = self._totals.get(machine_id, 0.0)
        self._fill_stream(chain, 1, pieces)
        np.cumsum(chain, out=chain)
        self._totals[machine_id] = float(chain[-1])

    #: Stacked-settle guard: fall back to per-machine flushes when the
    #: zero-padded matrix would waste more than this many elements (ragged
    #: streams), keeping peak memory bounded.  Both paths are
    #: bit-identical; the rule is purely a resource bound.
    _STACK_WASTE_LIMIT = 1 << 22

    def _flush_all(self) -> None:
        """Settle every machine's buffered stream in one stacked cumsum.

        Each machine's closed-contribution vector becomes one row of a
        zero-padded 2-D matrix — column 0 the machine's settled base
        total, trailing columns zero — settled with a single
        ``np.cumsum(axis=1)``.  ``cumsum`` accumulates strictly
        left-to-right per row, and the trailing ``+ 0.0`` adds cannot
        change a total built from non-negative terms, so every row's
        final column is bit-identical to that machine's
        :meth:`_flush` result.  Severely ragged streams (year-scale
        two-phase settles, where padding would dwarf the payload) fall
        back to per-machine passes — same chains, same bits.
        """
        pending = self._pending
        if not pending:
            return
        if len(pending) == 1:
            for machine_id in list(pending):
                self._flush(machine_id)
            return
        rows = []
        total_len = 0
        max_len = 0
        for machine_id, pieces in pending.items():
            if not pieces:  # opened stream, nothing closed yet
                continue
            length = self._stream_length(pieces)
            rows.append((machine_id, pieces, length))
            total_len += length
            if length > max_len:
                max_len = length
        pending.clear()
        k = len(rows)
        if k == 0:
            return
        if k * max_len - total_len > self._STACK_WASTE_LIMIT:
            chain = np.empty(1 + max_len)
            for machine_id, pieces, length in rows:
                chain[0] = self._totals.get(machine_id, 0.0)
                self._fill_stream(chain, 1, pieces)
                view = chain[: 1 + length]
                np.cumsum(view, out=view)
                self._totals[machine_id] = float(view[-1])
            return
        stacked = np.zeros((k, 1 + max_len))
        for i, (machine_id, pieces, _) in enumerate(rows):
            stacked[i, 0] = self._totals.get(machine_id, 0.0)
            self._fill_stream(stacked[i], 1, pieces)
        settled = np.cumsum(stacked, axis=1)[:, -1]
        for i, (machine_id, _, _) in enumerate(rows):
            self._totals[machine_id] = float(settled[i])

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
