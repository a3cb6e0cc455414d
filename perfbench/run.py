"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig5-87d --seed 7 --seconds 32 --trace 0

One set-up process (``iteration.py``) builds the workload's inputs from
the seed, then forks one sample after another while one more fits in
``--seconds``.  It stops early enough for two set-up-only processes to
follow, so ``setup_s`` rests on three set-ups.  The end-to-end metrics
are medians over the samples.  With ``--trace 1`` the untraced samples
also time a warm repeat, then one traced sample gives the per-layer
metrics, and the tracing overhead is its timed region against the
untraced median.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record with the
provenance stamp, every sample and the cold/warm label of each metric
is written to ``.perfbench_out/``; a traced run also writes its spans
there.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

from percentiles import percentile  # noqa: E402

WORKLOADS = ("fig5-87d", "replay-183d", "fleet-slice", "serve-stream")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "scaled_wall_s": "s",
    "peak_rss_mb": "MB",
    "scaled_samples_per_s": "1/s",
}
#: Per-layer metrics: name -> unit.  Each is 0 on a workload that does
#: not reach its layer.
PER_LAYER = {
    "core.predict_s": "s",
    "core.predict_cache_hit_ratio": "ratio",
    "core.plan_s": "s",
    "core.table_s": "s",
    "core.table_builds": "count",
    "core.table_cache_hit_ratio": "ratio",
    "sim.execute_plan_s": "s",
    "core.baselines_s": "s",
    "sim.replay_s": "s",
    "sim.predict_s": "s",
    "sim.control_s": "s",
    "sim.evaluate_s": "s",
    "sim.settle_s": "s",
    "sim.segments": "count",
    "sim.serving_sets": "count",
    "sim.reconfigurations": "count",
    "sim.control_us_per_reconfiguration": "us",
    "sim.kernel_cache_hit_ratio": "ratio",
    "scenarios.dispatch_s": "s",
    "scenarios.worker_s": "s",
    "scenarios.worker_busy_frac": "ratio",
    "scenarios.trace_builds": "count",
    "scenarios.segments_shared": "count",
    "results.save_s": "s",
    "results.records_saved": "count",
    "results.load_s": "s",
    "serve.feed_s": "s",
    "serve.decisions": "count",
    "serve.poll_s": "s",
    "serve.samples_parsed": "count",
    "serve.journal_append_s": "s",
    "serve.fsyncs": "count",
    "serve.latency_p50_ms": "ms",
    "serve.latency_p99_ms": "ms",
    "serve.checkpoint_s": "s",
    "serve.checkpoints": "count",
    "serve.daemon_self_s": "s",
    "serve.gen_lag_p99_ms": "ms",
    "harness.pacer_s": "s",
    "harness.residual_s": "s",
    "harness.warm_wall_s": "s",
    "harness.wall_s": "s",
    "harness.samples_per_s": "1/s",
    "harness.ref_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}
#: The metrics measured with warm caches; every other one is cold.
WARM = ("harness.warm_wall_s",)

#: A run ends within this many seconds: a set-up process still running
#: when it would be exceeded is killed and counted failed.
RUN_LIMIT_S = 170.0
#: Set-ups a run times: its set-up process plus set-up-only processes.
MIN_SETUPS = 3


def provenance() -> dict:
    """Where and on what the numbers were measured."""
    cpu = {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key in ("model name", "cpu MHz") and key not in cpu:
                cpu[key] = value.strip()
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu_model": cpu.get("model name"),
        "cpu_mhz": float(cpu["cpu MHz"]) if "cpu MHz" in cpu else None,
        "nproc": os.cpu_count(),
        "versions": versions,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "comparable_with": "only results whose cpu_model matches",
    }


def _process(
    workload, seed, workdir, limit, trace=False, setup_only=False, until=None,
    reserve_setups=0, spans_out=None,
):
    """Run ``iteration.py`` once, killing it at monotonic time ``limit``;
    returns its result dict or an error dict."""
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    env.pop("REPRO_FIG5_DAYS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir / "tmp")
    cmd = [
        sys.executable, str(HERE / "iteration.py"),
        "--workload", workload, "--seed", str(seed),
        "--workdir", str(workdir), "--trace", "1" if trace else "0",
    ]
    if setup_only:
        cmd.append("--setup-only")
    if until is not None:
        cmd += ["--until", repr(until), "--reserve-setups", str(reserve_setups)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    # Own process group: a killed run takes its samples and pool workers along.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, limit - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"set-up process killed at the {RUN_LIMIT_S:g} s run limit"}
    except BaseException:  # interrupted: take the samples down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        _reap_group(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-5:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail)}
    return json.loads(lines[-1])


def _group_alive(pgid: int) -> bool:
    """Does process group ``pgid`` still hold a process that is not a zombie?"""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _reap_group(pgid: int, grace_s: float = 5.0) -> None:
    """Wait for every process of group ``pgid`` to end (helpers such as the
    shared-memory resource tracker exit shortly after the sample);
    SIGKILL whatever is left after ``grace_s``."""
    end = time.monotonic() + grace_s
    while _group_alive(pgid):
        if time.monotonic() > end:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            return
        time.sleep(0.02)


def _stats_ledger(workload: str, seed: int, stats: dict) -> str:
    """Compare ``stats`` with what earlier runs of this seed recorded."""
    path = OUT / "stats" / f"{workload}-seed{seed}.json"
    if path.exists():
        known = json.loads(path.read_text())
        if known != stats:
            return f"simulated statistics differ from an earlier run: {known} != {stats}"
        return ""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stats, sort_keys=True))
    return ""


def _end_to_end(samples, setups) -> dict:
    med = statistics.median
    return {
        "setup_s": med(setups),
        "scaled_wall_s": med(sample["scaled_wall_s"] for sample in samples),
        "peak_rss_mb": med(sample["peak_rss_mb"] for sample in samples),
        "scaled_samples_per_s": med(sample["scaled_samples_per_s"] for sample in samples),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so the running set-up process is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    began = time.monotonic()
    limit = began + RUN_LIMIT_S
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    spans_out = OUT / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    run = _process(
        args.workload, args.seed, work, limit, trace=bool(args.trace),
        until=began + args.seconds,
        reserve_setups=0 if args.trace else MIN_SETUPS - 1, spans_out=spans_out,
    )
    problems = [run["error"]] if "error" in run else list(run["errors"])
    attempted = failed = len(problems)
    samples = run.get("samples", [])
    traced = run.get("traced")
    runs = samples + ([traced] if traced else [])
    for sample in runs:
        attempted += sample["attempted"]
        failed += sample["failed"]
        problems += sample["problems"]
    setups = [run["setup_s"]] if samples else []
    while samples and not args.trace and len(setups) < MIN_SETUPS:
        probe = _process(args.workload, args.seed, work, limit, setup_only=True)
        if "error" in probe:
            attempted += 1
            failed += 1
            problems.append(probe["error"])
            break
        setups.append(probe["setup_s"])

    # Simulated statistics repeat exactly across samples, traced or not,
    # and across runs of the same seed in this checkout.
    stats = [sample["stats"] for sample in runs]
    for other in stats[1:]:
        attempted += 1
        if other != stats[0]:
            failed += 1
            problems.append(f"simulated statistics differ: {stats[0]} != {other}")
    if stats:
        attempted += 1
        problem = _stats_ledger(args.workload, args.seed, stats[0])
        if problem:
            failed += 1
            problems.append(problem)

    metrics = {}
    if samples and args.trace == 0:
        values = _end_to_end(samples, setups)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    elif samples and traced is not None:
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = traced["timed_s"]
        untraced = statistics.median(sample["timed_s"] for sample in samples)
        layers["trace.overhead_frac"] = traced["timed_s"] / untraced - 1.0
        # Medians over the untraced samples: the warm repeat, the
        # unscaled figures a user sees, and the host's reference time.
        for key in ("warm_wall_s", "wall_s", "samples_per_s", "ref_s"):
            layers[f"harness.{key}"] = statistics.median(
                sample[key] for sample in samples
            )
        # The open-loop chunk latency moves with the shared disk's fsync
        # latency too much to gate (see README.md); it is reported here,
        # pooled over the untraced samples, without a bound.
        streamed = [x for sample in samples for x in sample["latency_s"]]
        for q in (50, 99):
            layers[f"serve.latency_p{q}_ms"] = (
                1e3 * percentile(streamed, q) if streamed else 0.0
            )
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "cache_state": {
            name: "warm" if name in WARM else "cold" for name in [*END_TO_END, *PER_LAYER]
        },
        "samples": samples,
        "setup_samples": setups,
        "traced": traced,
        "problems": problems,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    _report(record, attempted, failed)
    correct = bool(samples) and failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


def _report(record: dict, attempted: int, failed: int) -> None:
    prov = record["provenance"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"samples={len(record['samples'])} setups={len(record['setup_samples'])}"
    )
    print(
        f"# cpu={prov['cpu_model']} @ {prov['cpu_mhz']} MHz nproc={prov['nproc']} "
        f"python={prov['versions']['python']} numpy={prov['versions']['numpy']} "
        f"scipy={prov['versions']['scipy']} commit={prov['git_commit']}"
    )
    for name, m in record["metrics"].items():
        state = record["cache_state"][name]
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']:6s} {state}")
    print(f"failed_frac {failed}/{max(attempted, 1)} = {failed / max(attempted, 1):.6g}")
    for sample in record["samples"][:1]:
        for key, value in sample["notes"].items():
            print(f"# {key}: {value}")
    for problem in record["problems"][:10]:
        print(f"! {problem}")


if __name__ == "__main__":
    sys.exit(main())
