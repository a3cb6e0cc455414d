"""Tests for the benchmark's own pieces (no ``repro`` import needed).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from iteration import forked  # noqa: E402
from pacing import PacedSource  # noqa: E402
from percentiles import TooFewSamples, percentile, samples_beyond  # noqa: E402
from spans import Span, covered, layer_self_times, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def span(serial, name, start, end, parent=None, pid=1):
    return Span((pid, serial), name, start, end, None if parent is None else (pid, parent))


# -- span self-time arithmetic ------------------------------------------------


def test_covered_merges_overlaps_and_keeps_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert covered([(1.0, 2.0), (0.0, 4.0)]) == 4.0


def test_self_time_nested_and_sibling_spans():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 5.0, 9.0, parent=1),  # sibling of a
        span(4, "c", 2.0, 3.0, parent=2),  # nested in a
        span(5, "c", 6.0, 6.5, parent=3),  # nested in b
    ]
    selfs = self_times(spans)
    assert selfs[(1, 1)] == pytest.approx(3.0)  # 10 - 3 - 4
    assert selfs[(1, 2)] == pytest.approx(2.0)  # 3 - 1
    assert selfs[(1, 3)] == pytest.approx(3.5)  # 4 - 0.5
    assert selfs[(1, 4)] == pytest.approx(1.0)
    layers = layer_self_times(spans, (1, 1))
    assert layers == pytest.approx({"root": 3.0, "a": 2.0, "b": 3.5, "c": 1.5})
    assert sum(layers.values()) == pytest.approx(10.0)


def test_self_time_same_name_recursion_counts_once():
    spans = [
        span(1, "root", 0.0, 4.0),
        span(2, "predict", 0.0, 3.0, parent=1),
        span(3, "predict", 1.0, 2.5, parent=2),
    ]
    assert layer_self_times(spans, (1, 1)) == pytest.approx({"root": 1.0, "predict": 3.0})


def test_worker_spans_cover_one_slot_each_and_still_add_up():
    # Two workers (pids 2 and 3) run concurrently under the dispatcher.
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "suite", 0.0, 9.0, parent=1),
        Span((2, 1), "chunk", 1.0, 7.0, (1, 2)),
        Span((2, 2), "plan", 2.0, 6.0, (2, 1)),
        Span((3, 1), "chunk", 1.0, 9.0, (1, 2)),
    ]
    layers = layer_self_times(spans, (1, 1), jobs=2)
    assert layers["suite"] == pytest.approx(9.0 - (6.0 + 8.0) / 2)
    assert layers["plan"] == pytest.approx(4.0 / 2)
    assert layers["chunk"] == pytest.approx((2.0 + 8.0) / 2)
    assert sum(layers.values()) == pytest.approx(10.0)


def test_spans_outside_the_root_are_ignored():
    spans = [span(1, "root", 0.0, 1.0), span(2, "check", 2.0, 3.0)]
    assert layer_self_times(spans, (1, 1)) == {"root": 1.0}


# -- percentiles --------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    values = list(range(1, 1001))
    assert percentile(values, 99) == 990
    assert percentile(values, 50) == 500
    with pytest.raises(TooFewSamples):
        percentile(values[:999], 99)
    with pytest.raises(TooFewSamples):
        percentile(values, 100)
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_percentile_ignores_input_order():
    assert percentile([5.0, 1.0, 3.0] * 10, 50) == 3.0


# -- paced source ---------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0
        self.slept = []

    def __call__(self):
        return self.now

    def sleep(self, s):
        self.slept.append(s)
        self.now += s


class FakeInner:
    name = "serve"

    def __init__(self):
        self.polls = 0

    def poll(self):
        self.polls += 1
        return self.polls

    def state(self):
        return {"offset": self.polls}


def _paced(n_chunks, open_chunks, clock):
    appended = []
    src = PacedSource(
        FakeInner(),
        lambda values, end=False: appended.append((list(values), end)),
        [[float(i)] * 2 for i in range(n_chunks)],
        rate=2.0,  # two-sample chunks: one due per second
        open_chunks=open_chunks,
        clock=clock,
        sleep=clock.sleep,
        cpu_clock=clock,
    )
    return src, appended


def test_open_loop_waits_for_due_time_and_times_from_it():
    clock = FakeClock()
    src, appended = _paced(3, 3, clock)
    assert src.poll() == 1  # chunk 0 due at t0: appended at once
    assert appended == [([0.0, 0.0], False)]
    clock.now += 0.25  # the daemon took 0.25 s on chunk 0
    src.poll()  # waits 0.75 s for chunk 1
    assert clock.slept == [pytest.approx(0.75)]
    assert src.latency_s == [pytest.approx(0.25)]
    assert src.lag_s == [0.0, 0.0]
    assert src.due(2) == pytest.approx(102.0)


def test_open_loop_backlog_counts_from_due_time():
    clock = FakeClock()
    src, appended = _paced(4, 4, clock)
    src.poll()
    clock.now += 2.5  # a stall: chunks 1 and 2 fall due meanwhile
    src.poll()
    assert clock.slept == []
    assert appended[1] == ([1.0, 1.0, 2.0, 2.0], False)
    assert src.lag_s == [0.0, pytest.approx(1.5), pytest.approx(0.5)]
    clock.now += 0.1
    src.poll()
    assert src.latency_s == [
        pytest.approx(2.5), pytest.approx(1.6), pytest.approx(0.6)
    ]


def test_closed_loop_appends_on_every_poll_then_ends():
    clock = FakeClock()
    src, appended = _paced(3, 1, clock)
    src.poll()
    clock.now += 0.5
    src.poll()  # first closed-loop poll: no wait
    clock.now += 0.5
    src.poll()
    clock.now += 0.5
    src.poll()  # drained: END marker
    assert clock.slept == []
    assert [end for _, end in appended] == [False, False, False, True]
    assert src.latency_s == [pytest.approx(0.5)]
    assert src.open_end - src.t0 == pytest.approx(0.5)
    assert src.closed_end - src.closed_start == pytest.approx(1.0)
    assert src.closed_cpu_end - src.closed_cpu_start == pytest.approx(1.0)


# -- forked samples -------------------------------------------------------------


def test_forked_runs_fn_in_a_child_and_returns_its_result(tmp_path):
    parent = os.getpid()
    out = forked(lambda x: {"x": x, "child": os.getpid() != parent}, tmp_path / "r.json", 3)
    assert out == {"x": 3, "child": True}


def test_forked_reports_a_failed_or_vanished_child_as_an_error(tmp_path):
    def fails():
        raise ValueError("bad input")

    assert "ValueError: bad input" in forked(fails, tmp_path / "r.json")["error"]
    assert "without a result" in forked(lambda: os._exit(3), tmp_path / "r.json")["error"]


# -- names ----------------------------------------------------------------------


def test_every_metric_and_workload_name_is_well_formed():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
