"""Windowed streaming core: the batch control pass, fed one chunk at a time.

:class:`StreamingProvisioner` consumes raw rate samples in arbitrary
chunkings and emits the *exact* decision stream the batch two-phase
replay (:meth:`repro.sim.loop.EventDrivenReplay._control_pass`)
derives from the whole trace at once.  Bit-identity holds because every
step of the pipeline is arithmetic-free or shared code:

* the look-ahead-max predictor is a sliding **maximum** — pure
  comparisons, so computing it over ``tail + chunk`` sub-buffers picks
  float64 elements of the same values as the whole-trace kernel (only
  which of two signed zeros may differ, and the grid maps both to row 0);
* combination ids come from the same ``clipped_index``/``_row_ids``
  encoding the batch engine uses;
* the decision walk (first differing id at/after ``d_from``, blocking
  window ``td + boot + off``, out-of-table raise at the decision second)
  is the batch engine's own :class:`~repro.core.scheduler.DecisionWalk`,
  fed chunk by chunk: its O(1) state carries across chunk boundaries,
  and it jumps through each chunk's change points, so a backlog fed as
  one chunk costs what the same samples cost in small chunks.

Memory is **bounded**: the engine keeps the last ``window - 1`` raw
samples (the only part of the past a future window can still see), a few
counters, and the walk's transition caches (bounded by the table's
distinct transition pairs and machine deltas) — nothing scales with feed
length, which the property test asserts.

End-of-feed matters: the batch predictor's final ``window - 1`` entries
are *truncated* maxima (the window clips at the series end), so those
predictions only exist once the feed declares completion —
:meth:`StreamingProvisioner.finalize` emits them.

The whole engine state round-trips through a JSON-safe ``state_dict``
(floats via ``repr``), which is what the daemon checkpoints through the
:class:`~repro.results.store.RunStore` — restoring it resumes the
decision stream mid-feed with no drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.combination import Combination, CombinationTable
from ..core.scheduler import DecisionWalk, _row_ids
from ..workload.sliding import _complete_max, lookahead_max
from .journal import decode_record, encode_record

__all__ = ["Decision", "StreamingProvisioner", "EngineStateError"]


class EngineStateError(RuntimeError):
    """Raised for checkpoints the engine cannot safely restore."""


def _combo_items(combo: Combination) -> Tuple[Tuple[str, int], ...]:
    """A combination as hashable ``((name, count), ...)`` in its
    normalised (big-to-little) order."""
    return tuple((p.name, c) for p, c in combo.items)


@dataclass(frozen=True)
class Decision:
    """One reconfiguration decision — the streaming twin of
    :class:`~repro.core.reconfiguration.Reconfiguration`, carrying the
    same fields with combinations flattened to ``(name, count)`` tuples
    so it serialises canonically."""

    decided_at: int
    completes_at: int
    before: Tuple[Tuple[str, int], ...]
    after: Tuple[Tuple[str, int], ...]
    boot_duration: int
    off_duration: int
    on_energy: float
    off_energy: float

    def to_payload(self) -> bytes:
        """Canonical journal bytes (see :func:`~.journal.encode_record`)."""
        return encode_record(
            {
                "t": self.decided_at,
                "until": self.completes_at,
                "before": [[n, c] for n, c in self.before],
                "after": [[n, c] for n, c in self.after],
                "boot_s": self.boot_duration,
                "off_s": self.off_duration,
                "on_j": self.on_energy,
                "off_j": self.off_energy,
            }
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "Decision":
        d = decode_record(payload)
        return cls(
            decided_at=int(d["t"]),
            completes_at=int(d["until"]),
            before=tuple((str(n), int(c)) for n, c in d["before"]),
            after=tuple((str(n), int(c)) for n, c in d["after"]),
            boot_duration=int(d["boot_s"]),
            off_duration=int(d["off_s"]),
            # Keep the parsed numeric type: the batch accumulator yields
            # int 0 when nothing starts/stops, and byte-faithful
            # re-encoding (int 0 != float 0.0 in JSON) depends on it.
            on_energy=d["on_j"],
            off_energy=d["off_j"],
        )

    def matches(self, recon) -> bool:
        """Field equality against a batch ``Reconfiguration`` record."""
        return (
            self.decided_at == recon.decided_at
            and self.completes_at == recon.completes_at
            and self.before == _combo_items(recon.before)
            and self.after == _combo_items(recon.after)
            and self.boot_duration == recon.boot_duration
            and self.off_duration == recon.off_duration
            and self.on_energy == recon.on_energy
            and self.off_energy == recon.off_energy
        )


class StreamingProvisioner:
    """Incremental look-ahead-max prediction + decision walk over a table."""

    STATE_VERSION = 1

    def __init__(
        self,
        table: CombinationTable,
        window: int = 378,
        clamp: Optional[float] = None,
    ):
        if window < 1:
            raise ValueError("window must be >= 1 second")
        self.table = table
        self.window = int(window)
        self.clamp = None if clamp is None else float(clamp)
        self._table_ids = _row_ids(table.counts_array)
        # -- checkpointed state --------------------------------------------
        self._tail = np.empty(0, dtype=np.float64)  # last window-1 samples
        self._samples_in = 0  # raw samples consumed
        self._preds_out = 0  # completed predictions emitted
        self._decisions_out = 0
        #: the decision walk (current combination's table row and id,
        #: next decision second); ``None`` before the first prediction.
        #: Its transition caches are pure caches, rebuilt after a restore.
        self._walk: Optional[DecisionWalk] = None
        self._finalized = False

    # -- views ---------------------------------------------------------------
    @property
    def samples_in(self) -> int:
        return self._samples_in

    @property
    def decisions_out(self) -> int:
        return self._decisions_out

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def current(self) -> Optional[Combination]:
        """The combination currently serving (None before any prediction)."""
        return None if self._walk is None else self._walk.current

    def state_nbytes(self) -> int:
        """Rough size of the checkpointed state — the bounded-memory
        figure the property test tracks against feed length."""
        return self._tail.nbytes + 256

    # -- feeding -------------------------------------------------------------
    def feed(self, samples: Sequence[float]) -> List[Decision]:
        """Consume raw rate samples; emit decisions now determined.

        Only *full* prediction windows complete here: the last
        ``window - 1`` samples stay pending until more data (or
        :meth:`finalize`) arrives.  Like a batch
        :class:`~repro.workload.trace.LoadTrace`, rates must be finite
        and non-negative: a chunk holding any other sample raises
        :class:`ValueError` before the engine state changes.
        """
        if self._finalized:
            raise EngineStateError("feed() after finalize()")
        chunk = np.asarray(samples, dtype=np.float64)
        if chunk.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if chunk.size == 0:
            return []
        if not (chunk.min() >= 0 and chunk.max() < np.inf):  # NaN fails
            i = int(np.argmax(~(np.isfinite(chunk) & (chunk >= 0))))
            raise ValueError(
                f"sample {self._samples_in + i} is {chunk[i]!r}: rates "
                "must be finite and >= 0"
            )
        buf = np.concatenate([self._tail, chunk])
        new_total = self._samples_in + chunk.size
        # Predictions completed by this chunk: windows [t, t+W) fully
        # inside the data seen so far.
        new_preds = max(0, new_total - self.window + 1)
        k = new_preds - self._preds_out
        decisions: List[Decision] = []
        if k > 0:
            preds = _complete_max(buf, self.window, k)
            decisions = self._advance(preds)
            self._preds_out = new_preds
        keep = self.window - 1
        self._tail = buf[-keep:].copy() if keep else np.empty(0)
        self._samples_in = new_total
        return decisions

    def finalize(self) -> List[Decision]:
        """The feed is complete: emit the truncated-window tail decisions.

        The batch predictor's final ``window - 1`` predictions are maxima
        over windows clipped at the series end; they become computable
        only now.  Idempotent.
        """
        if self._finalized:
            return []
        self._finalized = True
        n_tail = self._samples_in - self._preds_out
        if n_tail <= 0:
            return []
        # tail holds exactly the last min(window-1, n) samples = the
        # samples the remaining (truncated) windows cover; a full pass of
        # the batch filter over them yields max(tail[j:]) at each j.
        preds = lookahead_max(self._tail, self.window)
        decisions = self._advance(preds[-n_tail:])
        self._preds_out = self._samples_in
        return decisions

    # -- the decision walk ----------------------------------------------------
    def _advance(self, preds: np.ndarray) -> List[Decision]:
        """Run the decision walk over newly-completed predictions.

        ``preds[j]`` is the prediction for absolute second
        ``self._preds_out + j``; the walk state carries across calls.
        """
        if self.clamp is not None:
            preds = np.minimum(preds, self.clamp)
        base = self._preds_out
        idx, oob = self.table.clipped_index(preds)
        cid = self._table_ids[idx]
        cid[oob] = -1
        if self._walk is None:
            # pred[0]: the initial combination, like the batch engine's
            # table.combination_for(pred[0]) — raises beyond the table.
            if base != 0:
                raise EngineStateError("walk state lost before first sample")
            if bool(oob[0]):
                self.table.combination_for(float(preds[0]))
            self._walk = DecisionWalk(
                self.table, self.table.combo_at(int(idx[0])), int(cid[0]),
                int(idx[0]),
            )
        before = self._walk.current
        out: List[Decision] = []
        for td, after, tr in self._walk.advance(base, cid, idx, preds):
            out.append(
                Decision(
                    decided_at=td,
                    completes_at=td + tr.boot_duration + tr.off_duration,
                    before=_combo_items(before),
                    after=_combo_items(after),
                    boot_duration=tr.boot_duration,
                    off_duration=tr.off_duration,
                    on_energy=tr.on_energy,
                    off_energy=tr.off_energy,
                )
            )
            before = after
        self._decisions_out += len(out)
        return out

    # -- checkpointing --------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot of the whole walk (floats via ``repr``
        round-trip bit-exactly through the store's JSON checkpoint)."""
        walk = self._walk
        return {
            "version": self.STATE_VERSION,
            "window": self.window,
            "clamp": self.clamp,
            "table_rows": len(self.table.counts_array),
            "samples_in": self._samples_in,
            "preds_out": self._preds_out,
            "decisions_out": self._decisions_out,
            "tail": [float(v) for v in self._tail],
            "cur_grid_idx": None if walk is None else walk.cur_idx,
            "cur_id": None if walk is None else walk.cur_id,
            "d_from": 1 if walk is None else walk.d_from,
            "finalized": self._finalized,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Adopt a :meth:`state_dict` snapshot (same table required)."""
        if state.get("version") != self.STATE_VERSION:
            raise EngineStateError(
                f"checkpoint version {state.get('version')!r} != "
                f"{self.STATE_VERSION}"
            )
        if int(state["window"]) != self.window:
            raise EngineStateError(
                f"checkpoint window {state['window']} != engine window "
                f"{self.window}"
            )
        if int(state["table_rows"]) != len(self.table.counts_array):
            raise EngineStateError(
                "checkpoint was taken against a different combination table"
            )
        clamp = state.get("clamp")
        if (clamp is None) != (self.clamp is None) or (
            clamp is not None and float(clamp) != self.clamp
        ):
            raise EngineStateError("checkpoint clamp differs from engine clamp")
        self._samples_in = int(state["samples_in"])
        self._preds_out = int(state["preds_out"])
        self._decisions_out = int(state["decisions_out"])
        self._tail = np.asarray(state["tail"], dtype=np.float64)
        cur_idx = state["cur_grid_idx"]
        self._walk = None if state["cur_id"] is None else DecisionWalk(
            self.table,
            self.table.combo_at(int(cur_idx)),
            int(state["cur_id"]),
            int(cur_idx),
            int(state["d_from"]),
        )
        self._finalized = bool(state["finalized"])
