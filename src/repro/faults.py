"""Deterministic fault injection: named failure points behind a no-op default.

Fleet-scale sweeps and long-running drivers turn worker failure from an
anomaly into a statistical certainty, and recovery paths that are never
exercised rot.  This module gives the runner and the results store a
*plan-driven* failure model so every recovery path — retry, worker
replacement, exact blame inside a chunk, checkpoint resume, store
quarantine — can be proven by tests instead of waited for in
production.

Design rules:

* **No-op by default.**  With no plan installed, every hook returns
  immediately; the hot paths pay one module-global ``is None`` check.
* **Deterministic.**  A :class:`Fault` fires purely as a function of
  ``(site, key, attempt)`` — no hidden counters that would desynchronise
  across worker processes.  "Transient" vs "persistent" is expressed as
  ``fail_attempts``: a fault fires while ``attempt < fail_attempts``, so
  ``fail_attempts=1`` fails the first attempt and lets the retry
  succeed.
* **Process-portable.**  Plans are small frozen dataclasses: they reach
  every suite worker as a process argument (pickled under ``spawn``,
  inherited in memory under ``fork``), so parent and workers agree on
  the failure schedule.

Injection sites (``SITES``):

``spec-error``
    Raise :class:`InjectedFault` inside a scenario execution (the
    transient/persistent exception model); keyed by spec name.
``worker-crash``
    ``os._exit`` the worker process mid-chunk (an OOM kill / segfault
    stand-in); keyed by spec name.  Only armed inside suite workers.
``worker-hang``
    Sleep ``hang_s`` seconds (a stuck worker); keyed by spec name.
    Only armed inside suite workers.
``corrupt-result``
    Truncate ``result.json`` after a :class:`~repro.results.store.RunStore`
    save (a torn write); keyed by scenario name.  Passive: consulted via
    :func:`check`, the store does the corrupting.
``trace-read``
    Raise :class:`InjectedFault` from the WC98 archive reader (a failing
    disk / bad archive); keyed by file path.

Streaming sites (PR 10, :mod:`repro.serve`):

``feed-stall``
    The tail reader pretends the feed produced nothing (a wedged
    producer / NFS hiccup); keyed by the daemon name, ``attempt`` is the
    poll index so ``fail_attempts=N`` stalls the first N polls.
    Passive: consulted via :func:`check`, the source returns no data.
``feed-torn-write``
    The feed-writer helper leaves its final record half-written without
    a newline (a torn append); keyed by the feed path.  Passive: the
    writer does the tearing, the reader must treat the partial record as
    incomplete (wait) or — once later bytes glue onto it — malformed
    (typed rejection), never crash.
``serve-crash``
    ``os._exit`` the daemon between journal append and checkpoint (the
    ``kill -9`` stand-in at the nastiest instant); keyed by the daemon
    name, ``attempt`` is the daemon's *generation* (0 on first start,
    +1 per ``--resume``), so ``fail_attempts=1`` crashes the first
    generation and lets the resumed one finish.
``journal-corrupt``
    Flip a byte inside a decision record just after it was written
    (disk bit rot); keyed by the journal path, ``attempt`` is the record
    index.  Passive: the journal does the flipping; re-opening must
    truncate a corrupt *tail* record and quarantine a corrupt mid-file
    one with a typed error.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Iterator, Optional, Sequence, Tuple

__all__ = [
    "SITES",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "install",
    "uninstall",
    "active",
    "injected",
    "fire",
    "check",
]

#: Every named injection point wired through the stack.
SITES = (
    "spec-error",
    "worker-crash",
    "worker-hang",
    "corrupt-result",
    "trace-read",
    "feed-stall",
    "feed-torn-write",
    "serve-crash",
    "journal-corrupt",
)

#: ``fail_attempts`` value that outlives any sane retry policy.
ALWAYS = 1_000_000


class InjectedFault(RuntimeError):
    """The exception a ``spec-error``/``trace-read`` fault raises."""

    def __init__(self, site: str, key: str, attempt: int):
        super().__init__(
            f"injected fault at {site!r} for {key!r} (attempt {attempt})"
        )
        self.site = site
        self.key = key
        self.attempt = attempt

    def __reduce__(self):
        # RuntimeError's default reduce replays ``args`` (the formatted
        # message) into ``__init__``, whose signature differs — an
        # exception that fails to unpickle on arrival would abort the
        # suite's dispatcher instead of reaching the spec's outcome.
        return (InjectedFault, (self.site, self.key, self.attempt))


@dataclass(frozen=True)
class Fault:
    """One scheduled failure.

    ``key`` is an ``fnmatch`` pattern against the site's key (spec name,
    scenario name or file path; ``"*"`` matches everything).  The fault
    fires while ``attempt < fail_attempts``: 1 is a transient failure
    (retry succeeds), :data:`ALWAYS` a persistent one.  ``hang_s`` only
    matters for ``worker-hang``.
    """

    site: str
    key: str = "*"
    fail_attempts: int = 1
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r} (expected one of {SITES})"
            )
        if self.fail_attempts < 1:
            raise ValueError("fail_attempts must be >= 1")
        if self.hang_s <= 0:
            raise ValueError("hang_s must be > 0")

    def matches(self, site: str, key: str, attempt: int) -> bool:
        return (
            site == self.site
            and attempt < self.fail_attempts
            and fnmatchcase(key, self.key)
        )


@dataclass(frozen=True)
class FaultPlan:
    """A frozen schedule of faults (plus seed provenance for sampled plans)."""

    faults: Tuple[Fault, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def find(self, site: str, key: str, attempt: int) -> Optional[Fault]:
        """The first fault scheduled for ``(site, key, attempt)``, if any."""
        for fault in self.faults:
            if fault.matches(site, key, attempt):
                return fault
        return None

    @classmethod
    def seeded(
        cls,
        seed: int,
        keys: Sequence[str],
        sites: Sequence[str] = ("spec-error",),
        rate: float = 0.2,
        fail_attempts: int = 1,
        hang_s: float = 3600.0,
    ) -> "FaultPlan":
        """Sample a deterministic plan: each ``(site, key)`` pair is
        poisoned with probability ``rate`` under a generator seeded with
        ``seed`` — the same seed always yields the same plan."""
        import numpy as np

        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        rng = np.random.default_rng(seed)
        chosen = [
            Fault(site=site, key=key, fail_attempts=fail_attempts, hang_s=hang_s)
            for site in sites
            for key in keys
            if rng.random() < rate
        ]
        return cls(faults=tuple(chosen), seed=seed)


#: The process-wide active plan; ``None`` keeps every hook a no-op.
_ACTIVE: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> None:
    """Arm ``plan`` for this process (suite workers receive it as a
    process argument and install it, see :mod:`repro.scenarios.runner`)."""
    global _ACTIVE
    _ACTIVE = plan


def uninstall() -> None:
    """Disarm fault injection (restores the no-op default)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``."""
    return _ACTIVE


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scoped installation: the previous plan is restored on exit."""
    global _ACTIVE
    previous = _ACTIVE
    install(plan)
    try:
        yield plan
    finally:
        _ACTIVE = previous


def check(site: str, key: str, attempt: int = 0) -> bool:
    """Passive query: is a fault scheduled here?  Never raises — passive
    sites (``corrupt-result``) act on the answer themselves."""
    plan = _ACTIVE
    if plan is None:
        return False
    return plan.find(site, key, attempt) is not None


def fire(site: str, key: str, attempt: int = 0) -> None:
    """Active hook: crash, hang or raise if a fault is scheduled here.

    ``worker-crash`` and ``serve-crash`` exit the process without
    cleanup (``os._exit``, like the OOM killer or ``kill -9`` would);
    ``worker-hang`` sleeps the fault's ``hang_s``; every other site
    raises :class:`InjectedFault`.
    """
    plan = _ACTIVE
    if plan is None:
        return
    fault = plan.find(site, key, attempt)
    if fault is None:
        return
    if site in ("worker-crash", "serve-crash"):
        os._exit(17)
    if site == "worker-hang":
        time.sleep(fault.hang_s)
        return
    raise InjectedFault(site, key, attempt)
