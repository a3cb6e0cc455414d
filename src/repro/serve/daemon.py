"""The ``repro serve`` daemon: poll, predict, decide, journal, checkpoint.

One loop wires the pieces together: a feed source
(:class:`~repro.serve.source.TailFileSource`) is polled for newly
complete records, the streaming engine
(:class:`~repro.serve.engine.StreamingProvisioner`) turns them into
reconfiguration decisions, every decision is appended to the crash-safe
journal (:class:`~repro.serve.journal.DecisionJournal`) **before** the
engine+source state is checkpointed through the
:class:`~repro.results.store.RunStore` — the ordering that makes
``--resume`` after ``kill -9`` byte-identical to an uninterrupted run
(re-derived decisions verify against already-journaled bytes instead of
re-appending).

Failure model:

* **feed stall** — no new data past ``stall_timeout_s``: the daemon
  holds the last plan, flips its health file to ``stalled`` (one event,
  not one per poll) and keeps polling; fresh data flips it back.
* **malformed / torn records** — typed
  :class:`~repro.workload.trace.TraceIngestError` per bad record with
  byte offsets, counted and surfaced in health; the stream continues.
* **SIGTERM / SIGINT** — finish the in-flight chunk, flush journal +
  checkpoint, mark health ``stopped``, exit cleanly; a later
  ``--resume`` continues exactly.
* **crash (``kill -9`` / ``serve-crash`` fault)** — nothing to do at
  crash time, by construction: the journal holds every acknowledged
  decision, the checkpoint holds a consistent (engine, source) cut at
  or behind it.

Health is a heartbeat JSON file next to the journal (``repro serve
--status`` reads it): status, generation, counters, and the most recent
events.  It is written at once at run start, on every event (a status
change or a rejected record) and at the terminal state.  Progress alone
(samples the file does not count yet) is written by the first poll at
least ``_HEARTBEAT_S`` after the last write.  A live 1 Hz feed polled
every 50 ms still gets about one write a second; a daemon catching up
on a backlog no longer rewrites and renames the file on every poll,
and ``--status`` may trail it by up to a second.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from .. import faults
from ..results.store import RunStore
from .engine import Decision, StreamingProvisioner
from .journal import DecisionJournal
from .source import TailFileSource

__all__ = ["ServeConfig", "ServeDaemon", "ServeError", "read_health"]

JOURNAL_FILE = "journal.bin"
HEALTH_FILE = "health.json"
_MAX_EVENTS = 20
#: Seconds between health writes for polls that only made progress.
_HEARTBEAT_S = 1.0
#: The daemon's clock: stall timeout and heartbeat cadence.
_clock = time.monotonic


class ServeError(RuntimeError):
    """Raised for daemon misuse: bad resume, config drift, missing state."""


@dataclass(frozen=True)
class ServeConfig:
    """Everything a serve run is parameterised by.

    The decision-relevant fields (``window``, ``max_rate``, ``method``,
    ``profiles``) are pinned into the checkpoint: a ``--resume`` under a
    different configuration would silently fork the decision stream, so
    it refuses instead.
    """

    feed: Path
    state_dir: Path
    window: int = 378
    max_rate: float = 5000.0
    method: str = "greedy"
    profiles: str = "table1"
    name: str = "serve"
    poll_s: float = 0.05
    stall_timeout_s: float = 5.0
    checkpoint_every: int = 3600  # samples between periodic checkpoints

    def decision_key(self) -> Dict[str, object]:
        """The config fields a checkpoint must match to be resumable."""
        return {
            "feed": str(self.feed),
            "window": self.window,
            "max_rate": self.max_rate,
            "method": self.method,
            "profiles": self.profiles,
        }


def read_health(state_dir: Union[str, Path]) -> Optional[Dict[str, object]]:
    """The daemon's last heartbeat, or ``None`` if it never wrote one."""
    path = Path(state_dir) / HEALTH_FILE
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except ValueError:
        return None  # torn heartbeat: the next beat overwrites it


def _build_table(config: ServeConfig):
    from ..core.bml import design
    from ..core.profiles import illustrative_profiles, table_i_profiles

    builders = {"table1": table_i_profiles, "illustrative": illustrative_profiles}
    try:
        profs = builders[config.profiles]()
    except KeyError:
        raise ServeError(
            f"unknown profile set {config.profiles!r} "
            f"(expected one of {sorted(builders)})"
        )
    return design(profs).table(config.max_rate, config.method)


class ServeDaemon:
    """One streaming provisioning run over one feed."""

    def __init__(
        self,
        config: ServeConfig,
        resume: bool = False,
        table=None,
        source=None,
    ):
        self.config = config
        self.name = config.name
        self.state_dir = Path(config.state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.store = RunStore(self.state_dir)
        self.table = table if table is not None else _build_table(config)
        self.engine = StreamingProvisioner(self.table, window=config.window)
        self.generation = 0
        self.rejected = 0
        self._events: List[str] = []
        # What the health file last said: when, how many samples in,
        # and whether an event has happened since.
        self._health_at = 0.0
        self._health_samples = 0
        self._event_unwritten = False
        self._status = "starting"
        self._stop_signum: Optional[int] = None
        self._samples_since_ckpt = 0

        checkpoint = self.store.load_state(self.name)
        if not resume and checkpoint is not None:
            raise ServeError(
                f"{self.state_dir} already holds serve state for "
                f"{self.name!r}; pass --resume to continue it or remove "
                "the directory to start over"
            )
        # Journal open runs recovery: torn tails truncate here, mid-file
        # corruption raises JournalCorruptError before any work happens.
        self.journal = DecisionJournal(self.state_dir / JOURNAL_FILE)
        if resume:
            if checkpoint is None:
                raise ServeError(
                    f"nothing to resume: no serve checkpoint for "
                    f"{self.name!r} in {self.state_dir}"
                )
            self._restore(checkpoint, source)
        else:
            if self.journal.count:
                raise ServeError(
                    f"{self.state_dir} holds a journal with "
                    f"{self.journal.count} record(s) but no checkpoint; "
                    "refusing to overwrite it"
                )
            self.source = (
                source
                if source is not None
                else TailFileSource(config.feed, name=self.name)
            )
        self._decision_index = self.engine.decisions_out

    def _restore(self, checkpoint: Dict[str, object], source) -> None:
        stored_key = checkpoint.get("config")
        if stored_key != self.config.decision_key():
            raise ServeError(
                "resume refused: checkpoint was taken under a different "
                f"configuration ({stored_key} != {self.config.decision_key()})"
            )
        self.engine.restore(checkpoint["engine"])
        if self.journal.count < self.engine.decisions_out:
            raise ServeError(
                f"journal holds {self.journal.count} record(s) but the "
                f"checkpoint acknowledged {self.engine.decisions_out}; "
                "acknowledged decisions are missing — refusing to resume"
            )
        self.generation = int(checkpoint.get("generation", 0)) + 1
        self.rejected = int(checkpoint.get("rejected", 0))
        src_state = checkpoint.get("source", {})
        if source is not None:
            self.source = source
        else:
            self.source = TailFileSource(
                self.config.feed,
                offset=int(src_state.get("offset", 0)),
                line_no=int(src_state.get("line_no", 0)),
                name=self.name,
            )

    # -- health -------------------------------------------------------------
    def _event(self, message: str) -> None:
        self._events.append(message)
        del self._events[:-_MAX_EVENTS]
        self._event_unwritten = True

    def _write_health(self, now: float) -> None:
        payload = {
            "name": self.name,
            "pid": os.getpid(),
            "status": self._status,
            "generation": self.generation,
            "samples_in": self.engine.samples_in,
            "decisions": self.engine.decisions_out,
            "journal_records": self.journal.count,
            "rejected": self.rejected,
            "feed": str(self.config.feed),
            "events": list(self._events),
            "updated_at": time.time(),
        }
        tmp = self.state_dir / (HEALTH_FILE + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, self.state_dir / HEALTH_FILE)
        self._health_at = now
        self._health_samples = payload["samples_in"]
        self._event_unwritten = False

    # -- persistence --------------------------------------------------------
    def _commit(self, decisions: List[Decision]) -> None:
        """Journal decisions durably, then crash-test, then nothing.

        A resumed generation re-derives decisions the crashed one
        already journaled: ``append`` verifies those byte-for-byte and
        writes nothing, so the final file is identical either way.
        """
        appended = 0
        for decision in decisions:
            if self.journal.append(self._decision_index, decision.to_payload()):
                appended += 1
            self._decision_index += 1
        if appended:
            # The nastiest instant: decisions journaled, checkpoint not
            # yet taken.  attempt = generation, so a transient fault
            # crashes the first run and lets --resume finish.
            faults.fire("serve-crash", self.name, attempt=self.generation)

    def _checkpoint(self) -> None:
        self.store.save_state(
            self.name,
            {
                "config": self.config.decision_key(),
                "engine": self.engine.state_dict(),
                "source": self.source.state(),
                "generation": self.generation,
                "rejected": self.rejected,
                "journal_records": self.journal.count,
                "status": self._status,
            },
        )
        self._samples_since_ckpt = 0

    # -- the loop -----------------------------------------------------------
    def _handle_signal(self, signum, frame) -> None:
        self._stop_signum = signum

    def run(self, max_polls: Optional[int] = None) -> str:
        """Drive the feed to completion (or signal/poll budget).

        Returns the terminal status: ``"done"`` (feed END reached),
        ``"stopped"`` (SIGTERM/SIGINT or ``max_polls`` — state flushed,
        resumable).
        """
        previous = {}
        try:
            for sig in (signal.SIGTERM, signal.SIGINT):
                previous[sig] = signal.signal(sig, self._handle_signal)
        except ValueError:
            previous = {}  # not the main thread (tests): run unguarded
        now = last_data = _clock()
        stalled = False
        polls = 0
        self._status = "running"
        # A checkpoint exists from the first instant: a crash before the
        # first periodic checkpoint must still leave a resumable base.
        self._checkpoint()
        self._write_health(now)
        try:
            while True:
                if self._stop_signum is not None:
                    self._status = "stopped"
                    self._event(
                        f"signal {self._stop_signum}: flushed journal + "
                        "checkpoint"
                    )
                    self._checkpoint()
                    self._write_health(now)
                    return "stopped"
                chunk = self.source.poll()
                now = _clock()
                polls += 1
                for err in chunk.rejected:
                    self.rejected += 1
                    self._event(f"rejected: {err}")
                if chunk.samples:
                    last_data = now
                    if stalled:
                        stalled = False
                        self._status = "running"
                        self._event("feed resumed after stall")
                    self._commit(self.engine.feed(chunk.samples))
                    self._samples_since_ckpt += len(chunk.samples)
                    if self._samples_since_ckpt >= self.config.checkpoint_every:
                        self._checkpoint()
                if chunk.finished:
                    self._commit(self.engine.finalize())
                    self._status = "done"
                    self._event(
                        f"feed complete: {self.engine.samples_in} samples, "
                        f"{self.journal.count} decisions"
                    )
                    self._checkpoint()
                    self._write_health(now)
                    return "done"
                if self._event_unwritten or (
                    self.engine.samples_in != self._health_samples
                    and now - self._health_at >= _HEARTBEAT_S
                ):
                    self._write_health(now)
                if not chunk.samples:
                    idle_for = now - last_data
                    if not stalled and idle_for >= self.config.stall_timeout_s:
                        # Graceful degradation: hold the last plan, say
                        # so once, keep listening.
                        stalled = True
                        self._status = "stalled"
                        self._event(
                            f"feed stalled for {idle_for:.2f}s: holding "
                            "last plan"
                        )
                        self._checkpoint()
                        self._write_health(now)
                    if max_polls is not None and polls >= max_polls:
                        self._status = "stopped"
                        self._event(f"poll budget ({max_polls}) exhausted")
                        self._checkpoint()
                        self._write_health(now)
                        return "stopped"
                    time.sleep(self.config.poll_s)
                elif max_polls is not None and polls >= max_polls:
                    self._status = "stopped"
                    self._event(f"poll budget ({max_polls}) exhausted")
                    self._checkpoint()
                    self._write_health(now)
                    return "stopped"
        finally:
            self.journal.close()
            for sig, handler in previous.items():
                signal.signal(sig, handler)
