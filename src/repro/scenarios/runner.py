"""One execution path for every scenario: build, plan, replay, account.

:func:`run_scenario` is the single facade the experiments module, the
CLI, the examples and the benchmarks all route through.  It materialises
the spec's profiles/trace/predictor (memoised: suites re-running the same
workload or infrastructure share the objects *and* the infrastructure's
combination-table cache), builds the plan its policy describes, replays
it on the requested engine, and wraps everything in a
:class:`ScenarioRun`.

:func:`run_suite` fans a list of specs out over ``jobs`` owned worker
processes (``jobs=1`` stays in-process), returning the per-scenario
results in input order.  Fan-out is **chunked by workload**
(:func:`chunk_specs`), and trace distribution is **zero-copy**: each
workload spanning several chunks is built once by the dispatcher,
published as a named ``multiprocessing.shared_memory`` segment
(:mod:`repro.workload.trace`), and mapped read-only by every worker —
instead of being pickled per chunk or rebuilt per worker.  A host
without a usable ``/dev/shm`` (``share_trace`` raising ``OSError``)
gets the same single parent build pickled into each payload instead.
Parallel results are bit-identical to sequential ones — pinned by
``tests/test_scenarios.py``.

Fault tolerance: every worker runs on its own pipe and replies once
per spec, so a crashed worker or an expired chunk deadline is charged
to exactly the spec that worker was running; only that worker is
replaced, while the others keep running.  Failed work retries with
exponential backoff under a :class:`RetryPolicy`, and
``keep_going=True`` turns the first-error-aborts contract into per-spec
outcomes (:class:`ScenarioRun` or :class:`FailedRun`, in input order).
``store=``/``resume=`` checkpoint every completed result through a
:class:`~repro.results.store.RunStore` as it lands and skip
already-stored specs on restart.  All recovery paths are provable via
:mod:`repro.faults` — see ``tests/faults/``.
"""

from __future__ import annotations

import os as _os
import signal as _signal
import time
import traceback as _traceback
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import faults
from ..core.adaptive import TransitionAwareScheduler
from ..core.baselines import global_upper_bound_plan, per_day_upper_bound_plan
from ..core.bml import BMLInfrastructure, design
from ..core.prediction import Predictor
from ..core.scheduler import BMLScheduler
from ..sim.datacenter import execute_plan, lower_bound_result
from ..sim.results import QoSReport, SimulationResult
from ..workload.trace import (
    LoadTrace,
    SharedTraceHandle,
    attach_trace,
    release_segment,
    share_trace,
)
from .spec import ScenarioError, ScenarioSpec, WorkloadSpec

__all__ = [
    "ScenarioRun",
    "FailedRun",
    "RetryPolicy",
    "SuiteExecutionError",
    "SuiteInterrupted",
    "run_scenario",
    "run_suite",
    "chunk_specs",
    "clear_caches",
    "fanout_stats",
]


# ---------------------------------------------------------------------------
# Shared-object caches (per process)
# ---------------------------------------------------------------------------

#: Infrastructures per (profiles, powercap): sharing the instance shares
#: its combination-table cache across every scenario of a suite.
_INFRA_CACHE: Dict[Tuple[str, Optional[float]], BMLInfrastructure] = {}

#: Built traces per workload spec + resolved day count.  Bounded: an
#: 87-day 1 Hz trace is ~60 MB, so only the most recent few stay alive.
_TRACE_CACHE: "OrderedDict[Tuple[WorkloadSpec, int], LoadTrace]" = OrderedDict()
_TRACE_CACHE_MAX = 4


#: Trace-distribution telemetry (cumulative, this process).  The
#: ``worker_trace_builds`` counter aggregates the builds suite workers
#: reported back — the figure the shared-memory path drives to zero for
#: every workload the dispatcher published.
_FANOUT_STATS: Dict[str, int] = {
    "trace_builds": 0,
    "worker_trace_builds": 0,
    "segments_shared": 0,
    "handles_shipped": 0,
    "bytes_shipped": 0,
    "bytes_pickle_avoided": 0,
}


def fanout_stats() -> Dict[str, int]:
    """Snapshot of the suite fan-out telemetry (cumulative, this process)."""
    return dict(_FANOUT_STATS)


def clear_caches() -> None:
    """Drop the memoised infrastructures and traces (tests, memory)."""
    _INFRA_CACHE.clear()
    _TRACE_CACHE.clear()


def _infra_for(spec: ScenarioSpec) -> BMLInfrastructure:
    key = (spec.profiles, spec.powercap)
    infra = _INFRA_CACHE.get(key)
    if infra is None:
        infra = design(spec.build_profiles())
        _INFRA_CACHE[key] = infra
    return infra


def _trace_for(workload: WorkloadSpec) -> LoadTrace:
    key = (workload, workload.resolved_days())
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        trace = workload.build()
        _FANOUT_STATS["trace_builds"] += 1
        _TRACE_CACHE[key] = trace
        while len(_TRACE_CACHE) > _TRACE_CACHE_MAX:
            _TRACE_CACHE.popitem(last=False)
    else:
        _TRACE_CACHE.move_to_end(key)
    return trace


# ---------------------------------------------------------------------------
# Per-scenario result object
# ---------------------------------------------------------------------------


@dataclass
class ScenarioRun:
    """Outcome of one scenario: the replay result plus run metadata.

    The full trace is *not* carried (87 days of 1 Hz samples do not
    belong in a result that travels across process boundaries); the QoS
    figures that need it are precomputed.
    """

    spec: ScenarioSpec
    result: SimulationResult
    days: int
    trace_peak: float
    trace_total_demand: float
    elapsed_s: float

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def scenario(self) -> str:
        return self.result.scenario

    def qos(self) -> QoSReport:
        """QoS report against the replayed trace's total demand."""
        from dataclasses import replace

        return replace(
            self.result.qos(), total_demand=self.trace_total_demand
        )

    def to_record(self):
        """Distil this run into a durable
        :class:`~repro.results.record.ScenarioResult` (the unified result
        model the :class:`~repro.results.store.RunStore`,
        :class:`~repro.results.report.SuiteReport` and ``repro scenario
        diff`` all consume)."""
        from ..results.record import ScenarioResult

        return ScenarioResult.from_run(self)

    def summary_row(self) -> Dict[str, object]:
        """One report-table row (same shape as ``Fig5Outcome`` rows).

        Delegates to the distilled record so the row shape has a single
        source of truth (``ScenarioResult.summary_row``).
        """
        return self.to_record().summary_row()


# ---------------------------------------------------------------------------
# Failure model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FailedRun:
    """Terminal failure of one scenario after its retry budget.

    The graceful-degradation counterpart of :class:`ScenarioRun`:
    ``run_suite(..., keep_going=True)`` returns one of these per spec
    that kept failing, instead of aborting the suite on the first error.
    ``error_type`` is the exception class name — or ``"WorkerCrashed"``
    / ``"ChunkTimeout"`` when the worker process died or blew through
    the chunk deadline, cases where no Python exception ever surfaced.
    """

    spec: ScenarioSpec
    error_type: str
    message: str
    traceback: str
    attempts: int
    elapsed_s: float

    @property
    def name(self) -> str:
        return self.spec.name

    def summary_row(self) -> Dict[str, object]:
        """One failures-table row (kept narrow; tracebacks stay off it)."""
        message = self.message.replace("\n", " ")
        if len(message) > 60:
            message = message[:57] + "..."
        return {
            "scenario": self.name,
            "error": self.error_type,
            "message": message,
            "attempts": self.attempts,
            "elapsed_s": round(self.elapsed_s, 2),
        }


class SuiteExecutionError(ScenarioError):
    """Raised by ``run_suite`` (without ``keep_going``) for failures that
    carry no re-raisable exception — crashed workers, chunk deadlines."""

    def __init__(self, failures: Sequence[FailedRun]):
        self.failures = tuple(failures)
        detail = "; ".join(
            f"{f.name}: {f.error_type} after {f.attempts} attempt(s) "
            f"({f.message})"
            for f in self.failures
        )
        super().__init__(f"{len(self.failures)} scenario(s) failed: {detail}")


class SuiteInterrupted(ScenarioError):
    """``run_suite`` stopped on SIGTERM/SIGINT after flushing results.

    Every result that completed before the signal was already
    checkpointed through the suite's ``store`` (results save the moment
    they land), so re-running with ``resume=True`` skips the completed
    specs and finishes only the remainder.  ``completed``/``total``
    count spec slots; ``signum`` is the signal that stopped the suite.
    """

    def __init__(self, signum: int, completed: int, total: int):
        self.signum = signum
        self.completed = completed
        self.total = total
        try:
            name = _signal.Signals(signum).name
        except ValueError:  # pragma: no cover - unknown signal number
            name = str(signum)
        super().__init__(
            f"suite interrupted by {name}: {completed}/{total} scenario(s) "
            "completed and checkpointed; resume=True finishes the rest"
        )


@contextmanager
def _graceful_stop():
    """Convert SIGTERM/SIGINT into a stop flag the suite polls and waits on.

    Yields a callable returning the received signal number (or ``None``).
    Its ``fileno()`` is the read end of a self-pipe the handler writes
    to, so a dispatcher blocked in ``multiprocessing.connection.wait``
    wakes the moment the signal lands.  The first signal requests a
    graceful stop — completed results are flushed; a second signal
    escalates to an immediate :class:`KeyboardInterrupt`.  Outside the
    main thread (or a non-Unix oddity) signals cannot be hooked; the
    suite then simply runs unguarded.
    """
    state = {"signum": None}
    wake_r, wake_w = _os.pipe()
    _os.set_blocking(wake_w, False)

    def handler(signum, frame):
        if state["signum"] is not None:
            raise KeyboardInterrupt
        state["signum"] = signum
        _os.write(wake_w, b"\0")

    def stopped() -> Optional[int]:
        return state["signum"]

    stopped.fileno = lambda: wake_r
    previous = {}
    try:
        for sig in (_signal.SIGTERM, _signal.SIGINT):
            previous[sig] = _signal.signal(sig, handler)
    except ValueError:  # not the main thread
        previous = {}
    try:
        yield stopped
    finally:
        for sig, old in previous.items():
            _signal.signal(sig, old)
        _os.close(wake_r)
        _os.close(wake_w)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard ``run_suite`` fights for each scenario.

    ``max_attempts`` bounds tries per spec (1 = no retry);
    ``timeout_s`` is the per-chunk deadline measured from dispatch (it
    must cover worker start-up under ``spawn``); retries back off
    exponentially (``backoff_s * backoff_factor**(retry - 1)``).
    """

    max_attempts: int = 3
    timeout_s: Optional[float] = None
    backoff_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ScenarioError("max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ScenarioError("timeout_s must be > 0")
        if self.backoff_s < 0:
            raise ScenarioError("backoff_s must be >= 0")
        if self.backoff_factor < 1:
            raise ScenarioError("backoff_factor must be >= 1")

    def delay(self, retry: int) -> float:
        """Seconds to back off before retry number ``retry`` (1-based)."""
        if retry <= 0:
            return 0.0
        return self.backoff_s * self.backoff_factor ** (retry - 1)


#: Legacy semantics for ``run_suite(retry=None)``: one attempt, no
#: deadline — failures surface immediately, nothing silently re-runs.
_NO_RETRY = RetryPolicy(max_attempts=1, backoff_s=0.0)

#: ``FailedRun.message`` of a spec whose worker process died under it.
_DIED = "worker process died mid-chunk"

#: The outcomes ``run_suite`` can place at a spec's slot: a live run, a
#: stored record (resumed from a checkpoint), or a terminal failure.
SuiteOutcome = Union[ScenarioRun, "ScenarioResult", FailedRun]  # noqa: F821


# ---------------------------------------------------------------------------
# The facade
# ---------------------------------------------------------------------------


#: Spec engine name -> :meth:`EventDrivenReplay.run` engine.  The bare
#: ``"event"`` alias tracks the fastest bit-identical implementation
#: (the two-phase engine since PR 6); the explicit names pin a variant.
_REPLAY_ENGINES = {
    "event": "twophase",
    "event-twophase": "twophase",
    "event-reference": "reference",
}


def _replay(
    spec: ScenarioSpec,
    trace: LoadTrace,
    infra: BMLInfrastructure,
    predictor: Optional[Predictor],
) -> SimulationResult:
    """Build the policy's plan and replay it on the requested engine."""
    sched = spec.scheduler
    label = spec.scenario_label
    if sched.policy in ("bml", "transition-aware"):
        predictor = predictor if predictor is not None else sched.build_predictor()
        if sched.policy == "transition-aware":
            if sched.inventory is not None or sched.build_app_spec() is not None:
                raise ScenarioError(
                    "the transition-aware policy does not support node "
                    "constraints yet"
                )
            scheduler = TransitionAwareScheduler(
                infra, predictor=predictor, method=sched.method
            )
        else:
            scheduler = BMLScheduler(
                infra,
                predictor=predictor,
                method=sched.method,
                inventory=sched.inventory_dict(),
                app_spec=sched.build_app_spec(),
            )
        if spec.engine == "fast":
            return execute_plan(scheduler.plan(trace), trace, label)
        from ..sim.loop import EventDrivenReplay

        # Event engines replay the BML rule (the spec rejects any other
        # policy) on the table the planner would read.
        _, table = scheduler.decision_inputs(trace)
        replay = EventDrivenReplay(
            table,
            trace,
            predictor=predictor,
            inventory=sched.inventory_dict(),
        )
        result = replay.run(engine=_REPLAY_ENGINES[spec.engine])
        result.scenario = label
        return result
    if sched.policy == "upper-global":
        return execute_plan(global_upper_bound_plan(trace, infra.big), trace, label)
    if sched.policy == "upper-per-day":
        return execute_plan(
            per_day_upper_bound_plan(trace, infra.big), trace, label
        )
    if sched.policy == "lower-bound":
        table = infra.table(max(trace.peak, 1.0), sched.method)
        return lower_bound_result(trace, table, label)
    raise ScenarioError(f"unknown policy {sched.policy!r}")


def run_scenario(
    spec: ScenarioSpec,
    trace: Optional[LoadTrace] = None,
    infra: Optional[BMLInfrastructure] = None,
    predictor: Optional[Predictor] = None,
) -> ScenarioRun:
    """Run one scenario end to end.

    ``trace``/``infra``/``predictor`` override the spec-built objects —
    that is how :func:`repro.experiments.run_fig5` keeps accepting
    explicit objects while routing through the one execution path, and
    how suites share a trace across scenarios without rebuilding it.
    """
    t0 = time.perf_counter()
    infra = infra if infra is not None else _infra_for(spec)
    trace = trace if trace is not None else _trace_for(spec.workload)
    result = _replay(spec, trace, infra, predictor)
    return ScenarioRun(
        spec=spec,
        result=result,
        days=trace.n_days,
        trace_peak=trace.peak,
        trace_total_demand=trace.total_demand,
        elapsed_s=time.perf_counter() - t0,
    )


#: Per-worker shared overrides, installed once at worker start (pickling
#: a 60 MB trace per *task* would dwarf the work being parallelised).
_WORKER_SHARED: Dict[str, object] = {}


def _workload_key(spec: ScenarioSpec) -> Tuple[WorkloadSpec, int]:
    """The trace-cache key a scenario's workload resolves to."""
    return (spec.workload, spec.workload.resolved_days())


def chunk_specs(
    specs: Sequence[ScenarioSpec],
    jobs: int,
    chunk_size: Optional[int] = None,
) -> List[List[int]]:
    """Partition spec indices into workload-coalesced pool tasks.

    Scenarios sharing a workload land in the same chunk, so the chunk's
    worker builds (or receives) each trace exactly once — no duplicate
    trace construction across the pool.  Work is counted in trace-days
    (a scenario over a ``d``-day workload weighs ``d``): a group bigger
    than one worker's fair share (``ceil(total trace-days / jobs)``) is
    split into pieces of at most ``ceil(share / d)`` specs, so a
    catalogue dominated by one workload still parallelises, and a piece
    of a long workload weighs no more than a piece of a short one.  When
    every spec has the same day count this is the spec-count share
    ``ceil(n / jobs)``.
    ``chunk_size`` caps the piece size below the fair share for finer
    dispatch granularity — smaller chunks mean finer retry/timeout units
    and better straggler balance, and since the dispatcher distributes
    each workload's trace *once* via shared memory (not once per piece,
    see :func:`run_suite`), fine-grained pieces no longer pay a
    per-piece trace cost.

    Each chunk stays **one pool task** (no merging down to exactly
    ``jobs`` chunks): per-scenario runtimes vary wildly, so the pool's
    dynamic dispatch over more-tasks-than-workers balances stragglers
    the way a static assignment cannot.  Chunks are emitted largest
    first by trace-days (ties in first-appearance order) — the
    longest-processing-time heuristic for dynamic pools — and the whole
    partition is deterministic.
    """
    if jobs < 1:
        raise ScenarioError("jobs must be >= 1")
    if chunk_size is not None and chunk_size < 1:
        raise ScenarioError("chunk_size must be >= 1")
    groups: "OrderedDict[Tuple[WorkloadSpec, int], List[int]]" = OrderedDict()
    for i, spec in enumerate(specs):
        groups.setdefault(_workload_key(spec), []).append(i)
    total = sum(days * len(idxs) for (_, days), idxs in groups.items())
    share = -(-total // jobs)  # ceil: one worker's fair share of trace-days
    pieces: List[Tuple[int, List[int]]] = []
    for (_, days), idxs in groups.items():
        size = -(-share // days)
        if chunk_size is not None:
            size = min(size, chunk_size)
        for k in range(0, len(idxs), size):
            piece = idxs[k : k + size]
            pieces.append((days * len(piece), piece))
    pieces.sort(key=lambda p: (-p[0], p[1][0]))
    return [piece for _, piece in pieces]


def _spec_outcome(
    spec: ScenarioSpec,
    attempt: int,
    trace: Optional[LoadTrace],
    infra: Optional[BMLInfrastructure],
) -> Tuple[str, object]:
    """Run one spec, degrading exceptions into a portable failure payload.

    Returns ``("ok", ScenarioRun)`` or ``("error", payload)`` where the
    payload carries the exception's type/message/traceback — and the
    exception object itself when it pickles, so ``keep_going=False``
    callers can re-raise the original error across the pool boundary.
    """
    t0 = time.perf_counter()
    try:
        faults.fire("spec-error", spec.name, attempt)
        run = run_scenario(spec, trace=trace, infra=infra)
        return ("ok", run)
    except Exception as exc:
        import pickle

        try:
            # Full round trip: an exception that *dumps* but fails to
            # *load* (mismatched __init__ signature) would fail on
            # arrival in the dispatcher and abort the suite, so it must
            # be degraded to strings right here.
            pickle.loads(pickle.dumps(exc))
            carried: Optional[BaseException] = exc
        except Exception:
            carried = None
        return (
            "error",
            {
                "error_type": type(exc).__name__,
                "message": str(exc),
                "traceback": _traceback.format_exc(),
                "exception": carried,
                "elapsed_s": time.perf_counter() - t0,
            },
        )


def _run_chunk_guarded(payload):
    """Run a chunk's specs in this worker: pre-warm caches, run in order.

    ``payload`` is ``(pairs, prebuilt, attempt)``: the chunk's
    ``(index, spec)`` pairs, the traces the dispatcher distributed for
    the chunk's workloads — each either a :class:`SharedTraceHandle`
    (attached here, zero-copy) or a pickled :class:`LoadTrace` — seeded
    into this worker's ``_TRACE_CACHE`` so the chunk never rebuilds
    them, and the chunk's attempt number, which drives deterministic
    fault injection.  Per-spec exceptions are captured
    (``_spec_outcome``), so one bad spec never takes down its
    chunk-mates' finished results.

    Returns ``(results, stats)``: the per-spec outcomes plus this
    chunk's worker-side telemetry (``trace_builds`` — the number of
    traces this worker had to build itself, which the dispatcher
    aggregates into ``fanout_stats()["worker_trace_builds"]``).
    """
    pairs, prebuilt, attempt = payload
    for key, built in prebuilt.items():
        if isinstance(built, SharedTraceHandle):
            built = attach_trace(built)
        _TRACE_CACHE[key] = built
    builds_before = _FANOUT_STATS["trace_builds"]
    out: List[Tuple[int, Tuple[str, object]]] = []
    for i, spec in pairs:
        faults.fire("worker-crash", spec.name, attempt)
        faults.fire("worker-hang", spec.name, attempt)
        out.append(
            (
                i,
                _spec_outcome(
                    spec,
                    attempt,
                    _WORKER_SHARED.get("trace"),
                    _WORKER_SHARED.get("infra"),
                ),
            )
        )
    stats = {"trace_builds": _FANOUT_STATS["trace_builds"] - builds_before}
    return out, stats


def _worker_main(
    conn,
    trace: Optional[Union[LoadTrace, SharedTraceHandle]],
    infra: Optional[BMLInfrastructure],
    fault_plan: Optional[faults.FaultPlan],
) -> None:
    """Body of one suite worker process: serve chunks, reply per spec.

    A forked worker inherits the suite's graceful SIGTERM/SIGINT
    handler, so the dispositions are reset first: workers die on SIGTERM
    and leave SIGINT to the dispatcher.  The shared overrides and the
    fault plan arrive as process arguments (inherited in memory under
    ``fork``, pickled under ``spawn``).  Each chunk payload is run one
    spec at a time, and every spec is answered with one message, so the
    dispatcher always knows which spec a worker holds.  A failure
    outside the spec (a reply that will not pickle, a segment that
    cannot be attached) is answered with ``(None, message)``, and the
    worker keeps serving.
    """
    _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
    _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    if isinstance(trace, SharedTraceHandle):
        trace = attach_trace(trace)
    _WORKER_SHARED["trace"] = trace
    _WORKER_SHARED["infra"] = infra
    if fault_plan is not None:
        faults.install(fault_plan)
    while True:
        try:
            pairs, prebuilt, attempt = conn.recv()
        except EOFError:  # the dispatcher is gone
            return
        for pair in pairs:
            try:
                # Looked up at call time: instrumentation may replace it.
                conn.send(_run_chunk_guarded(([pair], prebuilt, attempt)))
            except Exception as exc:
                conn.send((None, f"{type(exc).__name__}: {exc}"))


class _Task:
    """One dispatchable unit of work: spec indices + attempt bookkeeping."""

    __slots__ = ("indices", "attempt", "not_before")

    def __init__(
        self, indices: Sequence[int], attempt: int = 0, not_before: float = 0.0
    ):
        self.indices = list(indices)
        self.attempt = attempt
        self.not_before = not_before


class _Worker:
    """One owned worker process, its pipe, and the chunk it is running.

    ``replies`` counts the messages received for ``task``, so the worker
    is running ``task.indices[replies]``.  ``inherited`` holds the
    trace-cache keys a forked worker inherited copy-on-write at its own
    fork: shipping those again would be a pure extra copy.
    """

    __slots__ = ("proc", "conn", "inherited", "task", "replies", "deadline")

    def __init__(self, proc, conn, inherited: set):
        self.proc = proc
        self.conn = conn
        self.inherited = inherited
        self.task: Optional[_Task] = None
        self.replies = 0
        self.deadline: Optional[float] = None


def _resume_index(store) -> Dict[str, object]:
    """Latest stored record per spec key (quarantined dirs are skipped)."""
    index: Dict[str, object] = {}
    for record in store.load_all():  # sequence order: latest save wins
        index[record.spec_key()] = record
    return index


def _run_one_sequential(
    spec: ScenarioSpec,
    policy: RetryPolicy,
    trace: Optional[LoadTrace],
    infra: Optional[BMLInfrastructure],
) -> Tuple[str, object, Optional[BaseException]]:
    """In-process attempt loop with backoff.

    Returns ``("ok", ScenarioRun, None)`` or ``("failed", FailedRun,
    last_exception)`` — the exception rides along so fail-fast callers
    re-raise the original error, not a wrapper.
    """
    t0 = time.perf_counter()
    last_exc: Optional[BaseException] = None
    last_tb = ""
    for attempt in range(policy.max_attempts):
        if attempt:
            delay = policy.delay(attempt)
            if delay:
                time.sleep(delay)
        try:
            faults.fire("spec-error", spec.name, attempt)
            return ("ok", run_scenario(spec, trace=trace, infra=infra), None)
        except Exception as exc:
            last_exc = exc
            last_tb = _traceback.format_exc()
    failed = FailedRun(
        spec=spec,
        error_type=type(last_exc).__name__,
        message=str(last_exc),
        traceback=last_tb,
        attempts=policy.max_attempts,
        elapsed_s=time.perf_counter() - t0,
    )
    return ("failed", failed, last_exc)


def _dispatch_chunks(
    specs: Sequence[ScenarioSpec],
    chunks: Sequence[Sequence[int]],
    pool_size: int,
    ctx,
    trace: Optional[LoadTrace],
    infra: Optional[BMLInfrastructure],
    policy: RetryPolicy,
    keep_going: bool,
    store,
    outcomes: List[Optional[SuiteOutcome]],
    stopped,
) -> List[Tuple[int, FailedRun, Optional[BaseException]]]:
    """The dispatcher behind the worker path of :func:`run_suite`.

    Runs ``chunks`` on up to ``pool_size`` owned worker processes
    (:func:`_worker_main`), each on its own pipe.  Successes are written
    into ``outcomes`` (and checkpointed through ``store``) spec by spec
    as they land; the return value is the terminal failures as
    ``(spec_index, FailedRun, carried_exception)``.  The dispatcher
    blocks in ``multiprocessing.connection.wait`` on the pipes, the
    process sentinels and ``stopped`` (the waitable stop flag of
    :func:`_graceful_stop`); it times out only for the next chunk
    deadline or the end of a backoff.

    Trace distribution: any workload split across several chunks — or
    already built in the parent — is built **once**, published in a
    shared-memory segment (:func:`repro.workload.trace.share_trace`),
    and referenced by handle in every chunk payload; workers map the
    same physical pages instead of unpickling or rebuilding the arrays.
    When ``share_trace`` raises ``OSError`` (no usable ``/dev/shm``),
    the parent-built trace is pickled into each payload instead — still
    one build.  Workloads confined to one chunk are left for their
    worker to build (still exactly one build).  A forked worker inherits
    the parent's trace cache as it stood at its own fork and is shipped
    only what it lacks.  A ``trace`` override reaches spawned workers
    as one segment handle (pickled per worker without ``/dev/shm``).
    Segments are owned by this process and released in the ``finally``
    below, after every worker has been killed and joined.

    Recovery policy — each worker replies once per spec, so blame is
    exact:

    * **Per-spec errors** come back as ``_spec_outcome`` payloads; only
      the failing spec is charged and requeued with exponential backoff.
    * **Dead worker** (its sentinel fires or its pipe closes) and
      **chunk deadline exceeded** (``policy.timeout_s``) share one path:
      the spec the worker was running is charged (``WorkerCrashed`` /
      ``ChunkTimeout``), the chunk's unstarted specs are requeued
      uncharged, and only that worker is killed; a replacement starts
      when there is work for it, while the other workers keep running.
    """
    from multiprocessing import resource_tracker
    from multiprocessing.connection import wait

    fork = ctx.get_start_method() == "fork"
    pending = deque(_Task(chunk) for chunk in chunks)
    workers: List[_Worker] = []
    first_seen: Dict[int, float] = {}
    failures: List[Tuple[int, FailedRun, Optional[BaseException]]] = []
    #: Workload key -> live SharedTraceHandle published by this dispatcher.
    shared_handles: Dict[Tuple[WorkloadSpec, int], SharedTraceHandle] = {}
    #: How many chunks touch each workload: a workload split across
    #: several pieces is worth a parent build + segment; a single-piece
    #: workload is left to its worker (one build either way).
    pieces_per_key: Dict[Tuple[WorkloadSpec, int], int] = {}
    for chunk in chunks:
        for key in {_workload_key(specs[i]) for i in chunk}:
            pieces_per_key[key] = pieces_per_key.get(key, 0) + 1
    fault_plan = faults.active()
    #: A spawn worker's ``trace`` override, published once.
    override_handle: Optional[SharedTraceHandle] = None

    def payload_for(task: _Task, worker: _Worker):
        prebuilt = {}
        if trace is None:  # a shared override supersedes per-spec traces
            for i in task.indices:
                key = _workload_key(specs[i])
                if key in prebuilt or key in worker.inherited:
                    continue
                handle = shared_handles.get(key)
                if handle is None and (
                    pieces_per_key.get(key, 0) > 1 or key in _TRACE_CACHE
                ):
                    built = _trace_for(specs[i].workload)
                    try:
                        handle = share_trace(built)
                    except OSError:  # no /dev/shm: ship by value
                        prebuilt[key] = built
                        _FANOUT_STATS["bytes_shipped"] += built.values.nbytes
                        continue
                    shared_handles[key] = handle
                    _FANOUT_STATS["segments_shared"] += 1
                if handle is not None:
                    prebuilt[key] = handle
                    _FANOUT_STATS["handles_shipped"] += 1
                    _FANOUT_STATS["bytes_pickle_avoided"] += handle.nbytes
        return ([(i, specs[i]) for i in task.indices], prebuilt, task.attempt)

    def start_worker() -> None:
        conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, override_handle or trace, infra, fault_plan),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        inherited = set(_TRACE_CACHE) if fork else set()
        workers.append(_Worker(proc, conn, inherited))
        if trace is not None and not fork:
            # without the segment the worker receives its own pickled copy
            key = "bytes_pickle_avoided" if override_handle else "bytes_shipped"
            _FANOUT_STATS[key] += trace.values.nbytes

    def charge(
        i: int,
        attempt: int,
        now: float,
        error_type: str,
        message: str,
        tb: str = "",
        exc: Optional[BaseException] = None,
    ) -> None:
        """Charge one attempt to spec ``i``: requeue it with backoff, or
        mint its ``FailedRun`` once the budget is spent."""
        if attempt + 1 >= policy.max_attempts:
            failed = FailedRun(
                spec=specs[i],
                error_type=error_type,
                message=message,
                traceback=tb,
                attempts=attempt + 1,
                elapsed_s=now - first_seen.get(i, now),
            )
            failures.append((i, failed, exc))
        else:
            not_before = now + policy.delay(attempt + 1)
            pending.append(_Task([i], attempt + 1, not_before))

    def receive(worker: _Worker, now: float) -> bool:
        """Handle every reply ``worker`` has sent; False once its pipe
        is closed (the worker is dead)."""
        try:
            while worker.conn.poll():
                results, info = worker.conn.recv()
                task = worker.task
                i = task.indices[worker.replies]
                worker.replies += 1
                if worker.replies == len(task.indices):
                    worker.task = worker.deadline = None
                if results is None:  # failed outside the spec
                    charge(i, task.attempt, now, "ChunkError", info)
                    continue
                _FANOUT_STATS["worker_trace_builds"] += info["trace_builds"]
                [(_, (status, payload))] = results
                if status == "ok":
                    if store is not None:
                        store.save(payload.to_record())
                    outcomes[i] = payload
                else:
                    charge(
                        i,
                        task.attempt,
                        now,
                        str(payload["error_type"]),
                        str(payload["message"]),
                        str(payload["traceback"]),
                        payload.get("exception"),
                    )
        except (EOFError, OSError):
            return False
        return True

    def retire(worker: _Worker, now: float, error_type: str, message: str):
        """Kill ``worker``; charge the spec it was running and requeue
        its chunk's unstarted specs uncharged."""
        worker.proc.kill()
        worker.proc.join()
        worker.conn.close()
        workers.remove(worker)
        task = worker.task
        if task is not None:
            rest = task.indices[worker.replies + 1 :]
            if rest:
                pending.appendleft(_Task(rest, task.attempt))
            i = task.indices[worker.replies]
            charge(i, task.attempt, now, error_type, message)

    # Fork workers must share this process's resource tracker: one they
    # started themselves would unlink every segment they attached when
    # they exit, while the segment is still live.
    resource_tracker.ensure_running()
    if trace is not None and not fork:
        try:
            override_handle = share_trace(trace)
        except OSError:  # no usable /dev/shm: pickle per worker instead
            pass
        else:
            _FANOUT_STATS["segments_shared"] += 1
    try:
        while pending or any(w.task is not None for w in workers):
            while pending and len(workers) < pool_size:
                start_worker()
            now = time.monotonic()
            for worker in list(workers):
                if worker.task is not None:
                    continue
                task = next((t for t in pending if t.not_before <= now), None)
                if task is None:
                    break
                pending.remove(task)
                for i in task.indices:
                    first_seen.setdefault(i, now)
                worker.task, worker.replies = task, 0
                if policy.timeout_s is not None:
                    worker.deadline = now + policy.timeout_s
                try:
                    worker.conn.send(payload_for(task, worker))
                except OSError:  # it died idle, before taking the chunk
                    retire(worker, now, "WorkerCrashed", _DIED)
            wakeups = [w.deadline for w in workers if w.deadline is not None]
            if pending and (
                len(workers) < pool_size
                or any(w.task is None for w in workers)
            ):
                wakeups.append(min(t.not_before for t in pending))
            timeout = max(0.0, min(wakeups) - now) if wakeups else None
            ready = set(
                wait(
                    [stopped]
                    + [w.conn for w in workers]
                    + [w.proc.sentinel for w in workers],
                    timeout,
                )
            )
            now = time.monotonic()
            signum = stopped()
            if signum is not None:
                # Graceful shutdown: flush every reply already sent to
                # the store before the suite dies.
                for worker in workers:
                    receive(worker, now)
                completed = sum(1 for o in outcomes if o is not None)
                raise SuiteInterrupted(signum, completed, len(outcomes))
            for worker in list(workers):
                died = worker.proc.sentinel in ready
                if died or worker.conn in ready:
                    if not receive(worker, now) or died:
                        retire(worker, now, "WorkerCrashed", _DIED)
            for worker in list(workers):
                if worker.deadline is not None and now >= worker.deadline:
                    retire(
                        worker,
                        now,
                        "ChunkTimeout",
                        f"chunk exceeded the {policy.timeout_s:g}s deadline",
                    )
            if failures and not keep_going:
                break
    finally:
        for worker in workers:
            worker.proc.kill()
        for worker in workers:
            worker.proc.join()
            worker.conn.close()
        # Releasing after the last worker is reaped means no worker
        # still maps a segment, and /dev/shm is clean even when the
        # suite aborted.
        for handle in shared_handles.values():
            release_segment(handle)
        if override_handle is not None:
            release_segment(override_handle)
    return failures


def run_suite(
    specs: Sequence[ScenarioSpec],
    jobs: int = 1,
    trace: Optional[LoadTrace] = None,
    infra: Optional[BMLInfrastructure] = None,
    start_method: Optional[str] = None,
    keep_going: bool = False,
    retry: Optional[RetryPolicy] = None,
    store=None,
    resume: bool = False,
    chunk_size: Optional[int] = None,
) -> List[SuiteOutcome]:
    """Run many scenarios, optionally fanned out over worker processes.

    ``jobs=1`` runs in-process (sharing this process's caches);
    ``jobs>1`` runs them on that many worker processes the dispatcher
    owns (:func:`_dispatch_chunks`).  The specs are partitioned by
    workload (:func:`chunk_specs`) into one task per
    workload piece (``chunk_size`` caps the piece size for finer
    dispatch/retry granularity), and each workload's trace is
    distributed **at most once per host**: any workload spanning several
    chunks is built once by the dispatcher, published as a
    ``multiprocessing.shared_memory`` segment, and mapped zero-copy by
    every worker that needs it — fan-out cost no longer scales with
    worker or chunk count.  Without a usable ``/dev/shm`` the parent
    build is pickled into each chunk payload instead.  Results come
    back in input order and are bit-identical to ``jobs=1``: scenarios
    are independent, every worker runs the same deterministic code path,
    and a shared-memory attach yields the same float64 arrays a local
    build would.  ``trace``/``infra`` are shared overrides applied to
    *every* scenario (callers that already built the workload pass it
    here instead of paying a rebuild per scenario or per worker).
    ``start_method`` overrides the platform's multiprocessing start
    method (tests pin ``"fork"``/``"spawn"`` to cover both shipping
    regimes).

    Fault tolerance:

    * ``retry`` (:class:`RetryPolicy`) arms per-chunk deadlines and
      exponential-backoff retries; the default (``None``) keeps the
      legacy single-attempt, no-deadline semantics.  A crash or an
      expired deadline is charged to the one spec its worker was
      running: chunk-mates that already finished keep their results,
      and the unstarted ones run again uncharged.
    * ``keep_going=True`` degrades gracefully: instead of the first
      error aborting the suite, each spec's slot holds its outcome — a
      :class:`ScenarioRun`, a resumed
      :class:`~repro.results.record.ScenarioResult`, or a
      :class:`FailedRun` after the retry budget.  With
      ``keep_going=False`` the first terminal failure re-raises the
      original exception when it crossed the process boundary intact,
      else a :class:`SuiteExecutionError`.
    * ``store`` (a :class:`~repro.results.store.RunStore`) checkpoints
      every completed result the moment it lands (one spec at a time,
      also from workers); ``resume=True`` skips
      specs whose results the store already holds (matched by
      ``spec_key()``, latest save wins) and returns the stored records
      in their slots.
    """
    specs = list(specs)
    if jobs < 1:
        raise ScenarioError("jobs must be >= 1")
    if resume and store is None:
        raise ScenarioError("resume=True requires a store")
    policy = retry if retry is not None else _NO_RETRY
    outcomes: List[Optional[SuiteOutcome]] = [None] * len(specs)
    if resume:
        index = _resume_index(store)
        for i, spec in enumerate(specs):
            record = index.get(spec.spec_key())
            if record is not None:
                outcomes[i] = record
    todo = [i for i, done in enumerate(outcomes) if done is None]

    if jobs == 1 or len(todo) <= 1:
        with _graceful_stop() as stopped:
            for i in todo:
                signum = stopped()
                if signum is not None:
                    # Graceful: everything completed so far is already
                    # saved; resume=True re-runs only the remainder.
                    completed = sum(1 for o in outcomes if o is not None)
                    raise SuiteInterrupted(signum, completed, len(outcomes))
                status, outcome, exc = _run_one_sequential(
                    specs[i], policy, trace, infra
                )
                if status == "ok":
                    if store is not None:
                        store.save(outcome.to_record())
                elif not keep_going:
                    if exc is not None:
                        raise exc
                    raise SuiteExecutionError([outcome])
                outcomes[i] = outcome
        return outcomes  # type: ignore[return-value]

    import multiprocessing

    ctx = multiprocessing.get_context(start_method)
    sub = [specs[i] for i in todo]
    jobs = min(jobs, len(todo))
    local_chunks = chunk_specs(sub, jobs, chunk_size)
    chunks = [[todo[j] for j in local] for local in local_chunks]
    pool_size = max(1, min(jobs, len(chunks)))
    with _graceful_stop() as stopped:
        failures = _dispatch_chunks(
            specs,
            chunks,
            pool_size,
            ctx,
            trace,
            infra,
            policy,
            keep_going,
            store,
            outcomes,
            stopped=stopped,
        )
    if failures and not keep_going:
        for _, _, exc in failures:
            if exc is not None:
                raise exc
        raise SuiteExecutionError([failed for _, failed, _ in failures])
    for i, failed, _ in failures:
        outcomes[i] = failed
    return outcomes  # type: ignore[return-value]
