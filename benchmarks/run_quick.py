#!/usr/bin/env python
"""Quick iteration loop: the ``quick``-marked tier-1 subset (<60 s).

The full tier-1 suite (``pytest tests/ benchmarks/``) takes 3-7 minutes;
this wrapper runs only the tests marked ``quick`` — the scenario-subsystem
smoke tests plus the property suites pinning the bit-identity contracts
(vectorised kernels, replay engines, constraints) — which is the subset
most likely to catch a broken refactor while hacking.  Always finish with
the full suite (or ``benchmarks/run_benchmarks.py``) before recording a
PR.

A fault-injection smoke rides along after the tests: a 4-spec suite on
two fork workers with one transient injected failure and one worker
crash must fail exactly the crashed spec (as ``WorkerCrashed``), leave
``/dev/shm`` clean and print no ``resource_tracker`` warning
(``--no-faults`` skips it).

A sweep smoke follows: the registered ``grid-smoke`` sweep (2x2x2 x 1
day) expands and runs through the spawn pool with shared-memory trace
distribution, then the leak check fails if any ``repro``-prefixed
``/dev/shm`` segment the smoke's own process created survived the suite
(``--no-sweep`` skips it).

Next, a control-plane smoke: a 7-day diurnal trace replayed through the
reference and two-phase engines must be bit-identical, and the
two-phase run must report its four phase timings (``--no-control``
skips it).

Last, a serve smoke: the PR 10 streaming daemon tails a temp feed,
gets killed by an injected ``serve-crash`` (exit 17, post-journal
pre-checkpoint), resumes, and must finish with a journal byte-identical
to an uninterrupted run over the same feed (``--no-serve`` skips it).

Usage::

    python benchmarks/run_quick.py              # quick tests + smokes
    python benchmarks/run_quick.py --no-faults  # skip the fault smoke
    python benchmarks/run_quick.py --no-sweep   # skip the sweep smoke
    python benchmarks/run_quick.py --no-serve   # skip the serve smoke
    python benchmarks/run_quick.py --perf       # + hot-path benchmarks
    python benchmarks/run_quick.py -- -k table  # extra pytest args
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: In-process script proving the worker recovery paths end to end: four
#: specs over one workload on two fork workers, one chunk per spec (so
#: the trace is shared through ``/dev/shm``), one transient spec error
#: and one persistent worker crash.  Exactly the crashed spec may fail.
FAULT_SMOKE = """\
import glob
import os
from dataclasses import replace
from repro import faults, scenarios
from repro.workload.trace import SHM_PREFIX

base = scenarios.get("pattern-steady").with_days(1)
specs = [
    replace(
        base,
        name=f"smoke-{k}",
        scheduler=replace(base.scheduler, window=120 + 60 * k),
    )
    for k in range(4)
]
plan = faults.FaultPlan(
    faults=(
        faults.Fault("spec-error", "smoke-1", fail_attempts=1),
        faults.Fault("worker-crash", "smoke-2", fail_attempts=faults.ALWAYS),
    )
)
with faults.injected(plan):
    out = scenarios.run_suite(
        specs,
        jobs=2,
        start_method="fork",
        chunk_size=1,
        keep_going=True,
        retry=scenarios.RetryPolicy(max_attempts=2, backoff_s=0.0),
    )
failed = {o.name: o.error_type for o in out if hasattr(o, "error_type")}
assert failed == {"smoke-2": "WorkerCrashed"}, f"fault smoke: {failed}"
assert [o.name for o in out] == [s.name for s in specs]
leaked = glob.glob(f"/dev/shm/{SHM_PREFIX}{os.getpid()}-*")
assert not leaked, f"fault smoke: leaked shared-memory segments {leaked}"
print(
    "fault smoke: 3/4 scenarios ran on fork workers "
    "(1 transient fault retried, 1 worker crash charged to its spec)"
)
"""


#: In-process script proving the PR 8 sweep path end to end: the
#: registered smoke grid expands, fans out over a spawn pool with
#: shared-memory trace distribution, and leaves ``/dev/shm`` clean.
SWEEP_SMOKE = """\
import glob
import os
from repro import scenarios
from repro.workload.trace import SHM_PREFIX, shm_stats

sweep = scenarios.get_sweep("grid-smoke")
specs = sweep.expand()
assert len(specs) == sweep.size == 8
out = scenarios.run_suite(
    specs, jobs=2, start_method="spawn", chunk_size=1
)
assert [o.name for o in out] == [s.name for s in specs]
stats = scenarios.fanout_stats()
assert stats["segments_shared"] >= 1, stats  # the pool path really ran
assert shm_stats()["segments_live"] == 0, shm_stats()
leaked = glob.glob(f"/dev/shm/{SHM_PREFIX}{os.getpid()}-*")
assert not leaked, f"leaked shared-memory segments: {leaked}"
print(
    f"sweep smoke: {len(out)}/8 grid points ran "
    f"({stats['segments_shared']} segments shared, 0 leaked)"
)
"""


#: In-process script proving the PR 9 vectorized control plane end to
#: end: a 7-day diurnal trace replayed through both engines must be
#: bit-identical, and the two-phase run must time its four phases.
CONTROL_SMOKE = """\
import numpy as np
from repro.core.bml import design
from repro.core.profiles import table_i_profiles
from repro.sim.loop import EventDrivenReplay
from repro.workload import patterns

duration = 7 * 86_400
base = patterns.diurnal(duration, low=0.15, high=1.0, peak_hour=15.0)
week = patterns.weekly(duration, 1.0, 0.9)
values = np.round(patterns.compose(base, [week]) * 3000.0)
trace = patterns.make_trace(values, "week-diurnal-smoke")
infra = design(table_i_profiles())
table = infra.table(float(np.max(trace.values)))

results = {
    engine: EventDrivenReplay(table, trace).run(engine=engine)
    for engine in ("reference", "twophase")
}
ref = results["reference"]
for engine, res in results.items():
    assert np.array_equal(res.power, ref.power), engine
    assert np.array_equal(res.unserved, ref.unserved), engine
    assert res.meta["meter_energy_j"] == ref.meta["meter_energy_j"], engine
    assert res.reconfigurations == ref.reconfigurations, engine
phases = results["twophase"].meta["phase_s"]
assert set(phases) >= {"predict", "control", "evaluate", "settle"}, phases
print(
    "control smoke: 2 engines bit-identical over 7 diurnal days "
    f"({len(ref.reconfigurations)} reconfigs, "
    f"twophase control {phases['control']:.2f}s)"
)
"""


#: In-process script proving the PR 10 streaming daemon end to end: a
#: tailed temp feed, a crash injected at the nastiest instant (decision
#: journaled, checkpoint not yet taken), a ``--resume`` generation, and
#: a final journal byte-identical to an uninterrupted run's.
SERVE_SMOKE = """\
import subprocess, sys, tempfile
from pathlib import Path
from repro.serve import ServeConfig, ServeDaemon, append_feed

tmp = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
feed = tmp / "feed.txt"
append_feed(feed, [100.0] * 120 + [900.0] * 60 + [100.0] * 300, end=True)

clean = ServeConfig(feed=feed, state_dir=tmp / "clean", window=60,
                    max_rate=3000.0, poll_s=0.001)
assert ServeDaemon(clean).run() == "done"
clean_bytes = (clean.state_dir / "journal.bin").read_bytes()
assert clean_bytes, "smoke feed must generate decisions"

child = '''
import sys
from pathlib import Path
from repro import faults
from repro.serve import ServeConfig, ServeDaemon
tmp = Path(sys.argv[1])
config = ServeConfig(feed=tmp / "feed.txt", state_dir=tmp / "state",
                     window=60, max_rate=3000.0, poll_s=0.001)
plan = faults.FaultPlan(
    faults=(faults.Fault("serve-crash", "serve", fail_attempts=1),)
)
with faults.injected(plan):
    ServeDaemon(config).run()
sys.exit(99)  # unreachable: the crash fault must fire
'''
proc = subprocess.run([sys.executable, "-c", child, str(tmp)])
assert proc.returncode == 17, f"expected crash exit 17, got {proc.returncode}"

config = ServeConfig(feed=feed, state_dir=tmp / "state", window=60,
                     max_rate=3000.0, poll_s=0.001)
daemon = ServeDaemon(config, resume=True)
assert daemon.generation == 1
assert daemon.run() == "done"
resumed = (config.state_dir / "journal.bin").read_bytes()
assert resumed == clean_bytes, "resume diverged from the clean journal"
print(
    f"serve smoke: crash at gen 0 + resume -> journal byte-identical "
    f"({daemon.journal.count} decisions, {len(resumed)} bytes)"
)
"""


def run_fault_smoke(env) -> int:
    cmd = [sys.executable, "-c", FAULT_SMOKE]
    print(
        "$ fault-injection smoke (fork workers: transient spec-error + "
        "worker crash)",
        flush=True,
    )
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stderr=subprocess.PIPE, text=True
    )
    sys.stderr.write(proc.stderr)
    if "resource_tracker" in proc.stderr:
        # A worker registered a segment with a tracker of its own, which
        # unlinks the segment when that worker exits.
        print("fault smoke: resource_tracker warnings on stderr", flush=True)
        return proc.returncode or 1
    return proc.returncode


def run_control_smoke(env) -> int:
    cmd = [sys.executable, "-c", CONTROL_SMOKE]
    print(
        "$ control-plane smoke (7-day diurnal, 2-engine identity + "
        "warm predictor cache)",
        flush=True,
    )
    return subprocess.call(cmd, cwd=ROOT, env=env)


def run_serve_smoke(env) -> int:
    cmd = [sys.executable, "-c", SERVE_SMOKE]
    print(
        "$ serve smoke (tail feed + injected crash + resume, "
        "journal byte-identity)",
        flush=True,
    )
    return subprocess.call(cmd, cwd=ROOT, env=env)


def run_sweep_smoke(env) -> int:
    cmd = [sys.executable, "-c", SWEEP_SMOKE]
    print(
        "$ sweep smoke (grid-smoke over spawn pool + shm leak check)",
        flush=True,
    )
    return subprocess.call(cmd, cwd=ROOT, env=env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--perf",
        action="store_true",
        help="also run the hot-path benchmarks (writes BENCH_PERF_ONLY.json)",
    )
    parser.add_argument(
        "--no-faults",
        action="store_true",
        help="skip the fault-injection smoke",
    )
    parser.add_argument(
        "--no-sweep",
        action="store_true",
        help="skip the sweep + shared-memory leak smoke",
    )
    parser.add_argument(
        "--no-control",
        action="store_true",
        help="skip the 7-day two-engine control-plane smoke",
    )
    parser.add_argument(
        "--no-serve",
        action="store_true",
        help="skip the streaming-daemon crash/resume smoke",
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest (after --)",
    )
    args = parser.parse_args(argv)

    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )

    cmd = [
        sys.executable, "-m", "pytest", "tests/", "-m", "quick", "-q",
        *args.pytest_args,
    ]
    print(f"$ {' '.join(cmd)}", flush=True)
    status = subprocess.call(cmd, cwd=ROOT, env=env)
    if not args.no_faults:
        status = run_fault_smoke(env) or status
    if not args.no_sweep:
        status = run_sweep_smoke(env) or status
    if not args.no_control:
        status = run_control_smoke(env) or status
    if not args.no_serve:
        status = run_serve_smoke(env) or status
    if args.perf:
        from run_benchmarks import main as bench_main

        status = bench_main(["--perf-only", "--skip-tests", "--skip-regression"]) or status
    return status


if __name__ == "__main__":
    raise SystemExit(main())
