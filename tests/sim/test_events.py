"""Unit tests for the deterministic event queue."""

import pytest

from repro.sim.events import EventQueue, SimulationClockError


class TestScheduling:
    def test_fires_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(5.0, fired.append, "b")
        q.schedule(1.0, fired.append, "a")
        q.schedule(9.0, fired.append, "c")
        q.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_fifo_among_simultaneous_events(self):
        q = EventQueue()
        fired = []
        for tag in ("first", "second", "third"):
            q.schedule(3.0, fired.append, tag)
        q.run_until(3.0)
        assert fired == ["first", "second", "third"]

    def test_rejects_past_scheduling(self):
        q = EventQueue()
        q.run_until(10.0)
        with pytest.raises(SimulationClockError):
            q.schedule(5.0, lambda: None)

    def test_peek_on_empty_returns_none(self):
        assert EventQueue().peek_time() is None


class TestRunUntil:
    def test_inclusive_boundary(self):
        q = EventQueue()
        fired = []
        q.schedule(5.0, fired.append, "x")
        q.run_until(5.0)
        assert fired == ["x"]

    def test_leaves_future_events(self):
        q = EventQueue()
        fired = []
        q.schedule(5.0, fired.append, "soon")
        q.schedule(50.0, fired.append, "later")
        assert q.run_until(10.0) == 1
        assert fired == ["soon"]
        assert len(q) == 1

    def test_advances_clock_even_without_events(self):
        q = EventQueue()
        q.run_until(42.0)
        assert q.now == 42.0

    def test_events_scheduled_by_callbacks_fire_in_same_run(self):
        q = EventQueue()
        fired = []

        def chain():
            fired.append("first")
            q.schedule(q.now + 1.0, fired.append, "chained")

        q.schedule(1.0, chain)
        q.run_until(10.0)
        assert fired == ["first", "chained"]

