"""One benchmark run's samples, each forked from one set-up process.

``run.py`` starts this script once per run.  The script builds the
workload's inputs from the seed (set-up), then takes samples while
another one fits before ``--until``.  Each sample runs in a child forked
from the set-up process, so its timed region starts from exactly the
state set-up left behind, as in a process of its own: the program's
process-wide caches hold what set-up put there and nothing an earlier
sample computed, as on every ``repro`` command-line invocation.  A
sample resets the peak-RSS mark, runs the cold timed region (traced when
asked), runs the warm repeat when asked, checks the outputs and leaves
one JSON object in a file for the set-up process.  With ``--trace 1``
the untraced samples time the warm repeat and one traced sample follows
them.  The script prints one JSON object as its last stdout line.

    PYTHONPATH=src python3 perfbench/iteration.py --workload fig5-87d \\
        --seed 7 --workdir .perfbench_work/scratch --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from percentiles import percentile  # noqa: E402
from reference import NOMINAL_S, reference_s  # noqa: E402
from spans import Tracer, instrument, layer_self_times  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

#: Layer self-time metrics: span name -> per-layer metric.  Together with
#: ``harness.residual_s`` they add up to ``trace.wall_s``.
LAYER_TIMES = {
    "core.predict": "core.predict_s",
    "core.plan": "core.plan_s",
    "core.table": "core.table_s",
    "sim.execute_plan": "sim.execute_plan_s",
    "core.baselines": "core.baselines_s",
    "sim.replay": "sim.replay_s",
    "scenarios.run_suite": "scenarios.dispatch_s",
    "scenarios.chunk": "scenarios.worker_s",
    "results.save": "results.save_s",
    "results.load": "results.load_s",
    "serve.feed": "serve.feed_s",
    "serve.poll": "serve.poll_s",
    "serve.journal_append": "serve.journal_append_s",
    "serve.checkpoint": "serve.checkpoint_s",
    "serve.daemon": "serve.daemon_self_s",
    "harness.pacer": "harness.pacer_s",
    "bench.timed": "harness.residual_s",
}
#: Counters recorded by the wrappers, reported as they are.
LAYER_COUNTS = {
    "core.table_builds": "core.table_builds",
    "sim.predict_s": "sim.predict_s",
    "sim.control_s": "sim.control_s",
    "sim.evaluate_s": "sim.evaluate_s",
    "sim.settle_s": "sim.settle_s",
    "sim.segments": "sim.segments",
    "sim.serving_sets": "sim.serving_sets",
    "sim.reconfigurations": "sim.reconfigurations",
    "results.records_saved": "results.records_saved",
    "serve.decisions": "serve.decisions",
    "serve.samples_parsed": "serve.samples_parsed",
    "serve.fsyncs": "serve.fsyncs",
    "serve.checkpoints": "serve.checkpoints",
}


def _vmhwm_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _reset_hwm() -> None:
    """Reset VmHWM to the current RSS (``5`` > ``/proc/self/clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cache_stats() -> dict:
    from repro.scenarios import fanout_stats
    from repro.sim.loadbalancer import serving_kernel_cache_stats

    return {"kernel": serving_kernel_cache_stats(), "fanout": fanout_stats()}


def _layer_metrics(spans, c: dict, root, wl, before: dict, after: dict, out: Outcome):
    """Per-layer metrics of the cold timed region rooted at ``root``."""
    selfs = layer_self_times(spans, root, jobs=wl.jobs)
    metrics = {metric: selfs.get(span, 0.0) for span, metric in LAYER_TIMES.items()}
    unknown = set(selfs) - set(LAYER_TIMES)
    if unknown:
        raise RuntimeError(f"spans with no layer metric: {sorted(unknown)}")
    for counter, metric in LAYER_COUNTS.items():
        metrics[metric] = c.get(counter, 0.0)
    metrics["core.predict_cache_hit_ratio"] = _ratio(
        c.get("core.predict_cache_hits", 0.0), c.get("core.predict_cache_lookups", 0.0)
    )
    calls = c.get("core.table_calls", 0.0)
    metrics["core.table_cache_hit_ratio"] = _ratio(
        calls - c.get("core.table_builds", 0.0), calls
    )
    metrics["sim.control_us_per_reconfiguration"] = 1e6 * _ratio(
        c.get("sim.control_s", 0.0), c.get("sim.reconfigurations", 0.0)
    )
    hits, misses = (
        after["kernel"][k] - before["kernel"][k]
        for k in ("table_cache_hits", "table_cache_misses")
    )
    metrics["sim.kernel_cache_hit_ratio"] = _ratio(hits, hits + misses)
    fan = {k: after["fanout"][k] - before["fanout"][k] for k in after["fanout"]}
    metrics["scenarios.trace_builds"] = fan["trace_builds"] + fan["worker_trace_builds"]
    metrics["scenarios.segments_shared"] = fan["segments_shared"]
    suite = [s for s in spans if s.name == "scenarios.run_suite"]
    chunks = [s for s in spans if s.name == "scenarios.chunk"]
    suite_s = sum(s.duration for s in suite)
    metrics["scenarios.worker_busy_frac"] = _ratio(
        sum(s.duration for s in chunks), wl.jobs * suite_s
    ) if chunks else 0.0
    lag = out.gen_lag_s
    metrics["serve.gen_lag_p99_ms"] = 1e3 * percentile(lag, 99) if lag else 0.0
    return metrics


def _sample(wl, args, trace: bool, warm: bool) -> dict:
    """One sample, in a forked child: cold region, warm repeat, checks."""
    if hasattr(wl, "fresh"):
        wl.fresh()
    tracer = None
    if trace:
        spill = args.workdir / "spill"
        spill.mkdir(parents=True, exist_ok=True)
        tracer = Tracer(spill)
        instrument(tracer)
        import pacing

        pacing.PacedSource.poll = tracer.wrap("harness.pacer", pacing.PacedSource.poll)
    before = _cache_stats()
    ref_before = reference_s()
    _reset_hwm()

    start = time.monotonic()
    if tracer is not None:
        token = tracer.open("bench.timed")
    wl.timed()
    if tracer is not None:
        tracer.close(token, "bench.timed")
        tracer.merge_spills()
        counters = dict(tracer.counters)
    timed_s = time.monotonic() - start
    # Pool workers (fleet-slice) are reaped by now; other workloads have
    # no children and read 0.
    children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    peak_mb = max(_vmhwm_mb(), children_mb)
    after = _cache_stats()
    ref_s = (ref_before + reference_s()) / 2.0

    warm_s = None
    if warm:
        warm_start = time.monotonic()
        wl.warm()
        warm_s = time.monotonic() - warm_start

    out = Outcome()
    wl.check(out)

    # Times at reference speed: on a host where the reference kernel
    # takes NOMINAL_S.
    speed = NOMINAL_S / ref_s
    wall_s = busy_s = timed_s
    scaled_wall_s = timed_s * speed
    if hasattr(wl, "phases"):
        # serve-stream: the open loop's wall time (set by the feed
        # schedule, so not scaled), the closed loop's as the warm figure,
        # and the closed loop's CPU time as the rate's base.
        wall_s, warm_s, busy_s = wl.phases()
        scaled_wall_s = wall_s
    result = {
        "timed_s": timed_s,
        "wall_s": wall_s,
        "scaled_wall_s": scaled_wall_s,
        "warm_wall_s": warm_s,
        "peak_rss_mb": peak_mb,
        "samples_per_s": out.samples / busy_s,
        "scaled_samples_per_s": out.samples / (busy_s * speed),
        "ref_s": ref_s,
        "latency_s": out.latency_s,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems,
        "stats": out.stats,
        "notes": out.notes,
    }
    if args.print_pins:
        result["pins"] = wl.pins()
    if tracer is not None:
        root = token[0]
        result["layers"] = _layer_metrics(
            tracer.spans, counters, root, wl, before, after, out
        )
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(
                json.dumps({
                    "workload": args.workload,
                    "seed": args.seed,
                    "jobs": wl.jobs,
                    "counters": counters,
                    "spans": [s.to_json() for s in tracer.spans],
                })
            )
    return result


def forked(fn, result_path: Path, *args) -> dict:
    """``fn(*args)`` run in a forked child, which exits afterwards.

    The child leaves what ``fn`` returned (a JSON-able dict) in
    ``result_path``, or ``{"error": ...}`` when ``fn`` raised; a child
    that ended before writing it reads as an error too.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    result_path.unlink(missing_ok=True)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            try:
                payload = fn(*args)
                code = 0
            except Exception:
                payload = {"error": traceback.format_exc(limit=-4)}
            partial = result_path.with_suffix(".partial")
            partial.write_text(json.dumps(payload))
            os.replace(partial, result_path)
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if not result_path.exists():
        return {"error": f"sample process ended (wait status {status}) without a result"}
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spawned-at", type=float, default=None,
        help="time.monotonic() when the parent started this process",
    )
    parser.add_argument(
        "--until", type=float, default=None,
        help="time.monotonic() by which sampling ends (default: one sample)",
    )
    parser.add_argument(
        "--reserve-setups", type=int, default=0,
        help="end sampling early enough for this many more set-ups to follow",
    )
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    parser.add_argument("--print-pins", action="store_true")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()

    workdir = args.workdir / "run"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.setup()
    setup_s = time.monotonic() - spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    until = spawned_at if args.until is None else args.until
    until -= args.reserve_setups * setup_s
    result_path = args.workdir / "sample.json"
    samples, durations, errors = [], [], []
    while True:
        began = time.monotonic()
        sample = forked(_sample, result_path, wl, args, False, bool(args.trace))
        durations.append(time.monotonic() - began)
        if "error" in sample:
            errors.append(sample["error"])
            break
        samples.append(sample)
        # Another sample only if it fits; a traced run also keeps room
        # for its traced sample.
        typical = statistics.median(durations)
        if time.monotonic() + typical * (2 if args.trace else 1) > until:
            break
    traced = None
    if args.trace and samples:
        traced = forked(_sample, result_path, wl, args, True, False)
        if "error" in traced:
            errors.append(traced["error"])
            traced = None
    if args.print_pins and samples:
        print(json.dumps({args.workload: samples[0]["pins"]}, indent=2))
    print(json.dumps({
        "setup_s": setup_s, "samples": samples, "traced": traced, "errors": errors,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
