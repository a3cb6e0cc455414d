"""Deterministic discrete-event queue for the machine-level simulator.

A tiny, dependency-free DES core: events are ``(time, sequence)``-ordered
(FIFO among simultaneous events, so runs are exactly reproducible) and
carry an arbitrary callback.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["EventQueue", "SimulationClockError"]


class SimulationClockError(RuntimeError):
    """Raised when an event is scheduled in the past."""


class EventQueue:
    """Min-heap of ``(time, seq, callback, args)`` with a monotonic clock."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[..., None], Tuple]] = []
        self._seq = itertools.count()
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at ``time`` (>= now)."""
        if time < self.now - 1e-9:
            raise SimulationClockError(
                f"cannot schedule at {time}, clock already at {self.now}"
            )
        heapq.heappush(self._heap, (time, next(self._seq), callback, args))

    def peek_time(self) -> Optional[float]:
        """Time of the next event, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def run_until(self, time: float) -> int:
        """Fire every event with ``event.time <= time``; returns the count.

        The clock ends at ``time`` even if the queue empties earlier.
        """
        fired = 0
        heap = self._heap
        while heap and heap[0][0] <= time:
            self.now, _, callback, args = heapq.heappop(heap)
            callback(*args)
            fired += 1
        if time > self.now:
            self.now = time
        return fired
