"""A paced feed producer wrapped around the daemon's own feed source.

:class:`PacedSource` stands between ``ServeDaemon`` and a
``TailFileSource``.  On each poll it first acts as the producer, then
delegates to the wrapped source, so the daemon reads the feed through
its production code path.

* **Open loop** (the first ``open_chunks`` chunks): chunk ``i`` is due
  ``i * period`` seconds after the first poll, whatever the daemon is
  doing.  A poll waits until the next chunk is due, then appends every
  chunk that is due by then.  A chunk's latency runs from its due time
  to the daemon's *next* poll: by then the daemon has parsed, decided,
  journaled, checkpointed and written health for it.  Lateness (how late
  the producer appended a chunk relative to its due time) is recorded
  too; it is high when the daemon cannot keep up.
* **Closed loop** (the remaining chunks): each poll appends the next
  chunk at once, so the daemon runs as fast as it can.  The process's
  CPU time is read at its first and last poll too.
* After the last chunk the next poll appends the ``END`` marker.

Time and sleep are injected so the accounting is testable.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence


class PacedSource:
    def __init__(
        self,
        inner,
        append: Callable[..., object],
        chunks: Sequence[Sequence[float]],
        rate: float,
        open_chunks: int,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
        cpu_clock: Callable[[], float] = time.process_time,
    ):
        if not 0 <= open_chunks <= len(chunks):
            raise ValueError("open_chunks must be within the chunk count")
        self.inner = inner
        self.append = append
        self.chunks = list(chunks)
        self.open_chunks = open_chunks
        self.period = len(self.chunks[0]) / rate if self.chunks else 0.0
        self.clock = clock
        self.sleep = sleep
        self.cpu_clock = cpu_clock
        self.name = getattr(inner, "name", "serve")
        #: first poll: chunk i of the open loop is due at t0 + i * period
        self.t0: Optional[float] = None
        self.latency_s: List[float] = []
        self.lag_s: List[float] = []
        #: first closed-loop poll, and the poll that found it drained
        self.closed_start: Optional[float] = None
        self.closed_end: Optional[float] = None
        #: process CPU time at those two polls
        self.closed_cpu_start: Optional[float] = None
        self.closed_cpu_end: Optional[float] = None
        self._next = 0
        self._in_flight: List[int] = []
        self._ended = False

    def due(self, i: int) -> float:
        return self.t0 + i * self.period

    @property
    def open_end(self) -> Optional[float]:
        """When the daemon had finished every open-loop chunk."""
        return self.closed_start if self.open_chunks else self.t0

    def state(self) -> dict:
        return self.inner.state()

    def poll(self):
        now = self.clock()
        if self.t0 is None:
            self.t0 = now
        for i in self._in_flight:
            self.latency_s.append(now - self.due(i))
        self._in_flight = []
        if self._next < self.open_chunks:
            due = self.due(self._next)
            if now < due:
                self.sleep(due - now)
                now = self.clock()
            stop = self._next
            while stop < self.open_chunks and self.due(stop) <= now:
                stop += 1
            self._emit(range(self._next, stop))
            appended = self.clock()
            for i in range(self._next, stop):
                self.lag_s.append(appended - self.due(i))
            self._in_flight = list(range(self._next, stop))
            self._next = stop
        elif self._next < len(self.chunks):
            if self.closed_start is None:
                self.closed_start = now
                self.closed_cpu_start = self.cpu_clock()
            self._emit(range(self._next, self._next + 1))
            self._next += 1
        elif not self._ended:
            if self.closed_start is None:
                self.closed_start = now
                self.closed_cpu_start = self.cpu_clock()
            self.closed_end = now
            self.closed_cpu_end = self.cpu_clock()
            self.append([], end=True)
            self._ended = True
        return self.inner.poll()

    def _emit(self, indices: range) -> None:
        values: List[float] = []
        for i in indices:
            values.extend(self.chunks[i])
        self.append(values)
