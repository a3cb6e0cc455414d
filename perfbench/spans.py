"""In-memory span recording and the patches that wrap each layer.

A :class:`Tracer` records one :class:`Span` per call of a wrapped
function: its name, start, end, the span that was open when it started
(its parent) and the process it ran in.  Spans stay in memory; the
benchmark writes them out once the timed region ends.

:func:`instrument` wraps the public entry points of every layer of the
``repro`` package from outside the package.  A module-level function is
replaced in its defining module *and* in every ``repro`` module that
imported it by name, because that module looks the name up in its own
namespace.  Pool workers forked after :func:`instrument` inherit the
wrappers; :func:`instrument` also wraps the worker-side chunk entry point
so each worker spills its spans to a file the parent merges afterwards.

Self time is a span's duration minus the time its child spans cover.
Children from another process (pool workers) ran concurrently on
``jobs`` worker slots, so each covers ``1 / jobs`` of its duration: with
that weight the weighted self times of every span in a tree add up to
the root's duration exactly, and the root's own self time is the
residual no wrapped layer accounts for.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A span id: (pid, serial).  Serial numbers restart in no process, and a
#: forked worker keeps its parent's open-span stack, so worker spans name
#: their dispatcher-side parent by the parent's own id.
SpanId = Tuple[int, int]


@dataclass(frozen=True)
class Span:
    sid: SpanId
    name: str
    start: float
    end: float
    parent: Optional[SpanId]

    @property
    def pid(self) -> int:
        return self.sid[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        out = asdict(self)
        out["sid"] = list(self.sid)
        out["parent"] = None if self.parent is None else list(self.parent)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Span":
        parent = data["parent"]
        return cls(
            sid=tuple(data["sid"]),
            name=data["name"],
            start=data["start"],
            end=data["end"],
            parent=None if parent is None else tuple(parent),
        )


class Tracer:
    """Records spans and counters of the process it lives in."""

    def __init__(self, spill_dir: Optional[Path] = None):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.spill_dir = spill_dir
        self._stack: List[SpanId] = []
        self._serial = 0

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def open(self, name: str) -> Tuple[SpanId, Optional[SpanId], float]:
        self._serial += 1
        sid = (os.getpid(), self._serial)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, token: Tuple[SpanId, Optional[SpanId], float], name: str) -> None:
        sid, parent, start = token
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, name, start, end, parent))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(token, name)

        return wrapper

    def spill(self, spans: Sequence[Span], counters: Dict[str, float]) -> None:
        """Write one worker chunk's spans and counter deltas to a file."""
        self._serial += 1
        path = self.spill_dir / f"spans-{os.getpid()}-{self._serial}.json"
        payload = {
            "spans": [s.to_json() for s in spans],
            "counters": counters,
        }
        path.write_text(json.dumps(payload))

    def merge_spills(self) -> None:
        """Fold every worker spill file into this tracer."""
        if self.spill_dir is None:
            return
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            self.spans.extend(Span.from_json(s) for s in payload["spans"])
            for name, n in payload["counters"].items():
                self.counters[name] += n


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span], jobs: int = 1) -> Dict[SpanId, float]:
    """Each span's duration minus the time its children cover.

    Same-process children cover the union of their intervals (clipped
    to the parent's); children from another process cover
    ``duration / jobs`` each.
    """
    children: Dict[SpanId, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: Dict[SpanId, float] = {}
    for s in spans:
        local = []
        foreign = 0.0
        for c in children.get(s.sid, ()):
            if c.pid == s.pid:
                local.append((max(c.start, s.start), min(c.end, s.end)))
            else:
                foreign += c.duration / jobs
        out[s.sid] = s.duration - covered(local) - foreign
    return out


def weights(spans: Sequence[Span], jobs: int = 1) -> Dict[SpanId, float]:
    """Share of wall time each span's self time stands for.

    1 in the root's process; ``1 / jobs`` per process hop below it.
    """
    by_id = {s.sid: s for s in spans}
    out: Dict[SpanId, float] = {}

    def weight(s: Span) -> float:
        if s.sid not in out:
            parent = by_id.get(s.parent) if s.parent is not None else None
            if parent is None:
                out[s.sid] = 1.0
            else:
                hop = 1.0 if parent.pid == s.pid else 1.0 / jobs
                out[s.sid] = weight(parent) * hop
        return out[s.sid]

    for s in spans:
        weight(s)
    return out


def layer_self_times(
    spans: Sequence[Span], root: SpanId, jobs: int = 1
) -> Dict[str, float]:
    """Wall-weighted self time per span name over ``root``'s subtree."""
    by_parent: Dict[SpanId, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            by_parent[s.parent].append(s)
    tree: List[Span] = []
    todo = [s for s in spans if s.sid == root]
    while todo:
        s = todo.pop()
        tree.append(s)
        todo.extend(by_parent.get(s.sid, ()))
    selfs = self_times(tree, jobs)
    wts = weights(tree, jobs)
    out: Dict[str, float] = defaultdict(float)
    for s in tree:
        out[s.name] += selfs[s.sid] * wts[s.sid]
    return dict(out)


# ---------------------------------------------------------------------------
# Layer instrumentation
# ---------------------------------------------------------------------------


def _patch_function(module, attr: str, wrapped: Callable) -> None:
    """Replace ``module.attr`` everywhere a ``repro`` module holds it."""
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if vars(mod).get(attr) is original:
            setattr(mod, attr, wrapped)


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's public entry points with ``tracer`` spans."""
    import repro.core.baselines as baselines
    import repro.core.prediction as prediction
    import repro.scenarios.runner as runner
    import repro.sim.datacenter as datacenter
    from repro.core.bml import BMLInfrastructure
    from repro.core.scheduler import BMLScheduler
    from repro.results.store import RunStore
    from repro.serve.daemon import ServeDaemon
    from repro.serve.engine import StreamingProvisioner
    from repro.serve.journal import DecisionJournal
    from repro.serve.source import TailFileSource
    from repro.sim.loop import EventDrivenReplay

    def method(cls, attr, name, counter=None, amount=None):
        fn = getattr(cls, attr)
        if counter is not None:
            fn = _counting(tracer, fn, counter, amount)
        setattr(cls, attr, tracer.wrap(name, fn))

    # core.prediction: the series cache and every predictor's series().
    cached = prediction.cached_prediction_series

    @functools.wraps(cached)
    def cached_series(predictor, trace, clamp=None):
        before = prediction.prediction_cache_stats()
        try:
            return cached(predictor, trace, clamp=clamp)
        finally:
            after = prediction.prediction_cache_stats()
            hits, misses = (
                after[k] - before[k] for k in ("table_cache_hits", "table_cache_misses")
            )
            tracer.count("core.predict_cache_hits", hits)
            tracer.count("core.predict_cache_lookups", hits + misses)

    _patch_function(
        prediction, "cached_prediction_series", tracer.wrap("core.predict", cached_series)
    )
    for cls in _subclasses(prediction.Predictor):
        if "series" in vars(cls):
            method(cls, "series", "core.predict")

    # core.scheduler
    method(BMLScheduler, "plan", "core.plan")
    method(BMLScheduler, "plan_detailed", "core.plan")

    # core.bml / combination / constraints: the cached table builder.
    table = BMLInfrastructure.table

    @functools.wraps(table)
    def counted_table(self, *args, **kwargs):
        before = self.table_cache_misses
        try:
            return table(self, *args, **kwargs)
        finally:
            tracer.count("core.table_calls")
            tracer.count("core.table_builds", self.table_cache_misses - before)

    BMLInfrastructure.table = tracer.wrap("core.table", counted_table)

    # sim.datacenter + core.baselines
    for module, attr, name in (
        (datacenter, "execute_plan", "sim.execute_plan"),
        (baselines, "global_upper_bound_plan", "core.baselines"),
        (baselines, "per_day_upper_bound_plan", "core.baselines"),
        (datacenter, "lower_bound_result", "core.baselines"),
    ):
        _patch_function(module, attr, tracer.wrap(name, getattr(module, attr)))

    # sim.loop: the replay, plus the program-reported phase split.
    replay_run = EventDrivenReplay.run

    @functools.wraps(replay_run)
    def counted_run(self, *args, **kwargs):
        result = replay_run(self, *args, **kwargs)
        meta = result.meta
        for phase, seconds in meta.get("phase_s", {}).items():
            tracer.count(f"sim.{phase}_s", seconds)
        tracer.count("sim.segments", meta.get("segments", 0))
        tracer.count("sim.serving_sets", meta.get("serving_sets", 0))
        tracer.count("sim.reconfigurations", len(result.reconfigurations))
        return result

    EventDrivenReplay.run = tracer.wrap("sim.replay", counted_run)

    # scenarios.runner: the dispatcher, and each worker chunk.
    _patch_function(
        runner, "run_suite", tracer.wrap("scenarios.run_suite", runner.run_suite)
    )
    chunk = tracer.wrap("scenarios.chunk", runner._run_chunk_guarded)

    @functools.wraps(chunk)
    def spilled_chunk(payload):
        # Runs in a forked worker: keep only this chunk's spans and
        # counter deltas, spill them, and leave the worker's copy clean.
        mark = len(tracer.spans)
        counters = dict(tracer.counters)
        try:
            return chunk(payload)
        finally:
            spans = [s for s in tracer.spans[mark:] if s.pid == os.getpid()]
            delta = {k: v - counters.get(k, 0.0) for k, v in tracer.counters.items()}
            del tracer.spans[mark:]
            tracer.spill(spans, {k: v for k, v in delta.items() if v})

    # Pickled by reference into the pool: the wrapper keeps the original's
    # module and qualified name, so workers resolve it to itself.
    _patch_function(runner, "_run_chunk_guarded", spilled_chunk)

    # results.store
    method(RunStore, "save", "results.save", "results.records_saved", lambda _: 1)
    method(RunStore, "load_all", "results.load")

    # serve: engine, source, journal, checkpoints, daemon.
    method(StreamingProvisioner, "feed", "serve.feed", "serve.decisions", len)
    method(StreamingProvisioner, "finalize", "serve.feed", "serve.decisions", len)
    method(
        TailFileSource, "poll", "serve.poll", "serve.samples_parsed",
        lambda chunk: len(chunk.samples),
    )
    method(DecisionJournal, "append", "serve.journal_append", "serve.fsyncs", int)
    method(RunStore, "save_state", "serve.checkpoint", "serve.checkpoints", lambda _: 1)
    method(ServeDaemon, "run", "serve.daemon")


def _counting(tracer: Tracer, fn: Callable, counter: str, amount: Callable) -> Callable:
    """``fn`` adding ``amount(result)`` to ``counter`` after each call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.count(counter, amount(result))
        return result

    return wrapper


def _subclasses(cls) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
