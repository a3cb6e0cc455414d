"""Persistent run storage: suite runs become durable artifacts.

A :class:`RunStore` is a plain directory of runs, one sub-directory per
saved :class:`~repro.results.record.ScenarioResult`::

    <root>/
      0001-paper-bml/
        result.json    # spec + headline metrics + provenance
        series.npz     # per-day energy series, float64 (bit-exact)
      0002-paper-lower-bound/
        ...

Run ids are ``<seq>-<scenario-name>``: the zero-padded sequence number
keeps ``store.list()`` (and ``ls``) in save order, the name keeps ids
human-addressable.  The format is deliberately boring — JSON and NPZ,
no index file to corrupt; the directory *is* the database.  ``save`` →
``load`` reproduces every metric bit-identically (JSON floats round-trip
exactly, series travel as float64 NPZ), which is what makes stored runs
valid inputs for ``repro scenario diff`` and golden pinning.

Corrupt or truncated run directories (a torn write, a copy that lost
``series.npz``) are **quarantined**, not fatal: ``list()`` and
``load_all()`` skip them and collect :class:`QuarantinedRun` entries —
inspect them via :meth:`RunStore.skipped` — so one bad directory cannot
take a whole checkpointed suite's history hostage.  ``prune`` ignores
quarantined directories (it only ever deletes runs it can read).

Stores **federate** (PR 8): a sweep split across hosts produces one
store per host, and either :meth:`RunStore.merge` folds them into a
single store (conflict policy for duplicate spec keys: newest wins, or
error) or :func:`merged_results` reads several stores side by side
without copying anything — the view ``repro scenario report --store A
--store B`` consumes.  Because records carry their own ``created_at``
and round-trip bit-exactly, a merged store reports identically to the
store a single host would have produced.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from .. import faults
from .record import ResultError, ScenarioResult

__all__ = [
    "RunStore",
    "StoredRun",
    "QuarantinedRun",
    "StoreError",
    "load_run_dir",
    "merged_results",
]

RESULT_FILE = "result.json"
SERIES_FILE = "series.npz"
#: Sub-directory for named state checkpoints (``save_state``); its name
#: never matches ``_RUN_ID_RE``, so run listings cannot see it.
STATE_DIR = "_state"

_RUN_ID_RE = re.compile(r"^(\d+)-(.+)$")
_STATE_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class StoreError(ResultError):
    """Raised for missing or malformed stored runs."""


@dataclass(frozen=True)
class StoredRun:
    """One ``store.list()`` entry: enough to pick a run without loading it."""

    run_id: str
    name: str
    label: str
    days: int
    created_at: str
    total_energy_kwh: float
    path: Path

    @property
    def seq(self) -> int:
        m = _RUN_ID_RE.match(self.run_id)
        return int(m.group(1)) if m else 0


@dataclass(frozen=True)
class QuarantinedRun:
    """A run directory the store refused to read, and why.

    Quarantine is passive: the directory stays on disk untouched (the
    bytes may still be salvageable by hand) but it is invisible to
    ``list``/``load_all``/``latest``/``prune``.
    """

    run_id: str
    path: Path
    reason: str


def load_run_dir(path: Union[str, Path]) -> ScenarioResult:
    """Load the record stored in one run directory."""
    path = Path(path)
    result_path = path / RESULT_FILE
    series_path = path / SERIES_FILE
    if not result_path.exists():
        raise StoreError(f"{path} holds no {RESULT_FILE}")
    data = json.loads(result_path.read_text())
    if not series_path.exists():
        raise StoreError(f"{path} holds no {SERIES_FILE}")
    with np.load(series_path) as npz:
        series = {key: npz[key] for key in npz.files}
    return ScenarioResult.from_parts(data, series)


class RunStore:
    """A directory of persisted scenario runs."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._skipped: List[QuarantinedRun] = []
        #: The sequence number this instance claimed last (``None``
        #: until its first save scans the root).
        self._last_seq: Optional[int] = None

    # -- writing -----------------------------------------------------------
    def save(self, run) -> str:
        """Persist a run; returns its run id.

        Accepts a :class:`ScenarioResult` or anything
        :meth:`ScenarioResult.from_run` understands (a ``ScenarioRun``).

        Only the first save of an instance lists the root; later saves
        count on from the sequence number it claimed last, so a save
        costs the same however many runs the store holds.  Run ids stay
        unique and increasing within one instance.  Runs another live
        writer saves into the same root after that first scan are not
        seen: the two writers may then claim the same sequence number
        under different scenario names (both runs are kept, and
        ``list()`` orders the tie by name).  A clash on the whole id
        rescans the root.
        """
        record = (
            run
            if isinstance(run, ScenarioResult)
            else ScenarioResult.from_run(run)
        )
        self.root.mkdir(parents=True, exist_ok=True)
        # mkdir is the claim on a sequence number: a concurrent saver of
        # the same scenario loses the race, re-derives the next free seq
        # and retries (no check-then-act window on the id itself)
        if self._last_seq is None:
            seq = self._next_seq()
        else:
            seq = self._last_seq + 1
        while True:
            run_id = f"{seq:04d}-{record.name}"
            run_dir = self.root / run_id
            try:
                run_dir.mkdir()
            except FileExistsError:
                seq = max(self._next_seq(), seq + 1)
                continue
            break
        self._last_seq = seq
        payload = json.dumps(record.to_json_dict(), indent=2) + "\n"
        if faults.check("corrupt-result", record.name):
            payload = payload[: len(payload) // 2]  # a torn write
        (run_dir / RESULT_FILE).write_text(payload)
        np.savez_compressed(run_dir / SERIES_FILE, **record.series_arrays())
        return run_id

    def _next_seq(self) -> int:
        seqs = [
            int(m.group(1))
            for p in self.root.iterdir()
            if p.is_dir()
            for m in [_RUN_ID_RE.match(p.name)]
            if m
        ]
        return max(seqs, default=0) + 1

    # -- reading -----------------------------------------------------------
    def load(self, run_id: str) -> ScenarioResult:
        """Load one run by id."""
        run_dir = self.root / run_id
        if not run_dir.is_dir():
            known = ", ".join(s.run_id for s in self.list()) or "(store empty)"
            raise StoreError(
                f"no run {run_id!r} in {self.root} (known: {known})"
            )
        return load_run_dir(run_dir)

    def list(self) -> List[StoredRun]:
        """All readable stored runs in save order (reads JSON headers only).

        Corrupt or truncated directories are quarantined (skipped and
        recorded, see :meth:`skipped`) rather than fatal.
        """
        self._skipped = []
        if not self.root.is_dir():
            return []
        out: List[StoredRun] = []
        for p in sorted(self.root.iterdir()):
            if not p.is_dir() or not _RUN_ID_RE.match(p.name):
                continue
            result_path = p / RESULT_FILE
            if not result_path.exists():
                self._quarantine(p, f"missing {RESULT_FILE}")
                continue
            try:
                data = json.loads(result_path.read_text())
                stored = StoredRun(
                    run_id=p.name,
                    name=data.get("name", ""),
                    label=data.get("label", ""),
                    days=int(data.get("days", 0)),
                    created_at=data.get("provenance", {}).get("created_at", ""),
                    total_energy_kwh=float(
                        data.get("metrics", {}).get("total_energy_j", 0.0)
                    )
                    / 3.6e6,
                    path=p,
                )
            except (OSError, ValueError, TypeError, AttributeError) as exc:
                self._quarantine(
                    p, f"unreadable {RESULT_FILE}: {type(exc).__name__}: {exc}"
                )
                continue
            out.append(stored)
        out.sort(key=lambda s: s.seq)
        return out

    def load_all(self, strict: bool = False) -> List[ScenarioResult]:
        """Load every readable stored run in save order.

        Runs whose full payload fails to load (a corrupt ``series.npz``
        behind a healthy header) join the quarantine report; with
        ``strict=True`` the first such run raises instead.
        """
        out: List[ScenarioResult] = []
        for stored in self.list():
            try:
                out.append(load_run_dir(stored.path))
            except Exception as exc:
                if strict:
                    raise
                self._quarantine(
                    stored.path,
                    f"unloadable run: {type(exc).__name__}: {exc}",
                )
        return out

    def skipped(self) -> List[QuarantinedRun]:
        """The directories quarantined by the most recent scan
        (``list``/``load_all``/anything built on them), with reasons."""
        return list(self._skipped)

    def _quarantine(self, path: Path, reason: str) -> None:
        self._skipped.append(
            QuarantinedRun(run_id=path.name, path=path, reason=reason)
        )

    # -- state checkpoints -------------------------------------------------
    def _state_path(self, name: str) -> Path:
        if not _STATE_NAME_RE.match(name):
            raise StoreError(f"invalid state checkpoint name {name!r}")
        return self.root / STATE_DIR / f"{name}.json"

    def save_state(self, name: str, payload: Dict[str, object]) -> Path:
        """Atomically persist a named JSON state checkpoint.

        Checkpoints live under ``<root>/_state/`` — invisible to
        ``list()``/``load_all()``, which only consider ``<seq>-<name>``
        run directories.  The write is crash-safe: tmp file, flush,
        fsync, atomic rename — a ``kill -9`` at any instant leaves
        either the previous checkpoint or the new one, never a torn
        file.  This is what ``repro serve`` resumes from.
        """
        import os

        path = self._state_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        data = json.dumps(payload, sort_keys=True) + "\n"
        with open(tmp, "w") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    def load_state(self, name: str) -> Optional[Dict[str, object]]:
        """The named checkpoint, or ``None`` if never saved.

        A malformed checkpoint file raises :class:`StoreError` (the
        atomic writer cannot produce one, so damage means outside
        interference — resuming from it would be a silent fork)."""
        path = self._state_path(name)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except ValueError as exc:
            raise StoreError(
                f"corrupt state checkpoint {path}: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise StoreError(
                f"corrupt state checkpoint {path}: expected a JSON object"
            )
        return payload

    # -- retention ---------------------------------------------------------
    def prune(self, keep_last: int) -> List[str]:
        """Delete all but each scenario's newest ``keep_last`` runs.

        Retention is **per scenario name** (the unit ``latest()`` and
        ``repro scenario report`` consume): for every scenario with more
        than ``keep_last`` stored runs, the oldest surplus run
        directories are removed.  ``keep_last=0`` empties the store.
        Surviving runs are untouched on disk — loads stay bit-identical
        — and returned ids are in deletion (save) order.  Quarantined
        directories are never deleted: retention only counts (and only
        removes) runs the store can actually read.
        """
        if keep_last < 0:
            raise StoreError("keep_last must be >= 0")
        import shutil

        by_name: Dict[str, List[StoredRun]] = {}
        for stored in self.list():  # already in save (seq) order
            by_name.setdefault(stored.name, []).append(stored)
        removed: List[StoredRun] = []
        for runs in by_name.values():
            surplus = runs[:-keep_last] if keep_last else runs
            removed.extend(surplus)
        removed.sort(key=lambda s: s.seq)
        for stored in removed:
            shutil.rmtree(stored.path)
        return [s.run_id for s in removed]

    def latest(self, name: Optional[str] = None) -> ScenarioResult:
        """The most recently saved run, optionally filtered by scenario name."""
        stored = [s for s in self.list() if name is None or s.name == name]
        if not stored:
            raise StoreError(
                f"no stored run for {name!r} in {self.root}"
                if name
                else f"store {self.root} is empty"
            )
        return load_run_dir(stored[-1].path)

    # -- federation --------------------------------------------------------
    def merge(self, *sources, on_conflict: str = "newest") -> List[str]:
        """Fold other stores' runs into this one; returns the new run ids.

        Each source (a :class:`RunStore` or a path) contributes its
        newest run per spec key — re-runs *within* one store are normal
        history, not conflicts.  A spec key seen in **several** stores
        (this one included) is a conflict, resolved by policy:

        - ``"newest"`` — the record with the latest ``created_at`` wins
          (ties go to the later-listed source); a source record older
          than what this store already holds is simply skipped, so the
          merged store's latest-per-name view is the newest view.
        - ``"error"`` — raise :class:`StoreError` naming the colliding
          spec keys; nothing is written (the check runs up front).

        Records are re-saved byte-faithfully (``created_at`` and every
        metric travel inside the record), so reports over the merged
        store match reports over the federated view exactly.  Source
        quarantines fold into this store's :meth:`skipped` report.
        """
        if on_conflict not in ("newest", "error"):
            raise StoreError(
                f"unknown on_conflict policy {on_conflict!r} "
                "(choose 'newest' or 'error')"
            )
        stores = [
            src if isinstance(src, RunStore) else RunStore(src)
            for src in sources
        ]
        # Newest record per spec key, per store (dest first = index 0).
        per_store: List[Dict[str, ScenarioResult]] = []
        quarantined: List[QuarantinedRun] = []
        for store in [self] + stores:
            newest: Dict[str, ScenarioResult] = {}
            for record in store.load_all():  # save order: later wins
                newest[record.spec_key()] = record
            per_store.append(newest)
            quarantined.extend(store.skipped())
        if on_conflict == "error":
            collisions = {}
            for idx, newest in enumerate(per_store):
                for key, record in newest.items():
                    collisions.setdefault(key, []).append(
                        (idx, record.name)
                    )
            dupes = {k: v for k, v in collisions.items() if len(v) > 1}
            if dupes:
                names = sorted({name for v in dupes.values() for _, name in v})
                raise StoreError(
                    f"merge conflict: {len(dupes)} spec key(s) present in "
                    f"several stores (scenarios: {', '.join(names)}); "
                    "re-run with on_conflict='newest' to keep the newest"
                )
        dest_newest = per_store[0]
        winners: Dict[str, ScenarioResult] = {}
        for newest in per_store[1:]:  # later sources win created_at ties
            for key, record in newest.items():
                held = winners.get(key)
                if held is None or record.created_at >= held.created_at:
                    winners[key] = record
        saved: List[str] = []
        for key, record in winners.items():
            held = dest_newest.get(key)
            if held is not None and held.created_at >= record.created_at:
                continue  # this store already holds the newest
            saved.append(self.save(record))
        # Surface every participating store's quarantine in one place.
        self._skipped = quarantined
        return saved


def merged_results(
    stores: List[Union[RunStore, str, Path]], strict: bool = False
) -> List[ScenarioResult]:
    """The federated latest-per-scenario view over several stores.

    Each scenario name's winner is the record with the newest
    ``created_at`` across all stores (ties go to the later-listed store,
    then to save order within it) — exactly the record
    :meth:`RunStore.merge` would have kept.  Winners are returned in
    first-seen order, so a report over ``[half_a, half_b]`` lists
    scenarios in the order the original suite ran them.  With
    ``strict=True`` any unloadable run raises instead of being skipped.
    """
    opened = [
        src if isinstance(src, RunStore) else RunStore(src) for src in stores
    ]
    order: List[str] = []
    winner: Dict[str, ScenarioResult] = {}
    for store in opened:
        for record in store.load_all(strict=strict):
            held = winner.get(record.name)
            if held is None:
                order.append(record.name)
                winner[record.name] = record
            elif record.created_at >= held.created_at:
                winner[record.name] = record
    return [winner[name] for name in order]
