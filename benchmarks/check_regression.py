#!/usr/bin/env python
"""Guard the perf trajectory: compare ``BENCH_PR<k>.json`` artifacts.

The repo records one pytest-benchmark JSON artifact per PR
(``benchmarks/run_benchmarks.py``).  This checker compares the newest
artifact against the newest older one recorded on the same CPU model
(``machine_info.cpu.brand_raw``) and **fails (exit 1) when any benchmark
present in both slowed down by more than the threshold** (default 1.3x).
Timings from different CPUs are not compared as if they were the same:
with no older artifact from the current one's CPU the checker says so
and passes, and an explicit ``--previous`` from another CPU is still
compared, under a warning that names both CPUs.
New benchmarks (no counterpart in the previous artifact) are reported but
never fail; removed ones are listed for visibility.

The compared statistic is each benchmark's ``min`` — the fastest observed
round — which is the standard noise-robust choice for detecting real
slowdowns (means absorb scheduler jitter; a genuine regression moves the
floor).

Timings on shared boxes are noisy: a single recording can flag a >1.3x
"regression" on untouched code.  Before failing, the checker therefore
**re-measures the flagged benchmarks once** (best-of-2: the fresh ``min``
is merged with the recorded one) and only fails what still regresses —
a real slowdown reproduces, scheduler noise does not.  ``--no-retry``
restores the strict single-measurement behaviour.

Usage::

    python benchmarks/check_regression.py                  # newest vs previous, same CPU
    python benchmarks/check_regression.py --current BENCH_PR2.json
    python benchmarks/check_regression.py --threshold 1.5
    python benchmarks/check_regression.py --no-retry
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
ARTIFACT_RE = re.compile(r"^BENCH_PR(\d+)\.json$")
DEFAULT_THRESHOLD = 1.3


def find_artifacts(root: Optional[Path] = None) -> List[Tuple[int, Path]]:
    """``(k, path)`` for every ``BENCH_PR<k>.json`` in ``root``, sorted by k."""
    root = ROOT if root is None else root
    out = []
    for path in root.glob("BENCH_PR*.json"):
        match = ARTIFACT_RE.match(path.name)
        if match:
            out.append((int(match.group(1)), path))
    return sorted(out)


def load_mins(path: Path) -> Dict[str, float]:
    """``fullname -> min seconds`` for every benchmark in the artifact.

    Tolerant by design: a missing file, malformed JSON or a benchmark
    entry without usable stats yields a printed warning and simply
    contributes nothing — an incomplete recording must degrade into
    "fewer shared benchmarks", never a crash of the checker itself.
    """
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"warning: {path.name}: unreadable artifact ({exc}); "
              "treating as empty")
        return {}
    out: Dict[str, float] = {}
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list):
        print(f"warning: {path.name}: no benchmark list; treating as empty")
        return {}
    for bench in benchmarks:
        if not isinstance(bench, dict):
            continue
        name = bench.get("fullname") or bench.get("name")
        stats = bench.get("stats") or {}
        if not name or "min" not in stats:
            continue
        try:
            out[name] = float(stats["min"])
        except (TypeError, ValueError):
            print(f"warning: {path.name}: {name}: non-numeric min "
                  f"{stats['min']!r}; skipping entry")
    return out


def artifact_cpu(path: Path) -> Optional[str]:
    """The ``machine_info.cpu.brand_raw`` an artifact was recorded on,
    if readable."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    machine = data.get("machine_info") if isinstance(data, dict) else None
    cpu = machine.get("cpu") if isinstance(machine, dict) else None
    brand = cpu.get("brand_raw") if isinstance(cpu, dict) else None
    return str(brand) if brand else None


def missing_groups(
    current: Dict[str, float], previous: Dict[str, float]
) -> List[str]:
    """Benchmark groups (the file part of ``file::test`` fullnames) that
    the previous artifact recorded but the current one lost entirely —
    e.g. a benchmark module that failed to collect."""
    group = lambda name: name.split("::", 1)[0]  # noqa: E731
    return sorted(
        {group(n) for n in previous} - {group(n) for n in current}
    )


def compare(
    current: Dict[str, float],
    previous: Dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[List[str], List[str]]:
    """Returns ``(report_lines, failures)`` for the shared benchmarks."""
    lines: List[str] = []
    failures: List[str] = []
    shared = sorted(set(current) & set(previous))
    for name in shared:
        prev, cur = previous[name], current[name]
        if prev <= 0:
            continue
        ratio = cur / prev
        flag = ""
        if ratio > threshold:
            flag = f"  <-- REGRESSION (>{threshold:g}x)"
            failures.append(name)
        lines.append(
            f"{name}: {prev * 1e3:.3f} ms -> {cur * 1e3:.3f} ms "
            f"({ratio:.2f}x){flag}"
        )
    for name in sorted(set(current) - set(previous)):
        lines.append(f"{name}: new benchmark ({current[name] * 1e3:.3f} ms)")
    for name in sorted(set(previous) - set(current)):
        lines.append(f"{name}: removed (was {previous[name] * 1e3:.3f} ms)")
    return lines, failures


def artifact_commit(path: Path) -> Optional[str]:
    """The ``commit_info.id`` an artifact was recorded at, if readable."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    commit = (data.get("commit_info") or {}).get("id")
    return str(commit) if commit else None


def head_commit(root: Optional[Path] = None) -> Optional[str]:
    """HEAD's commit id, or None outside a usable git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT if root is None else root,
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def rerun_mins(names: List[str], root: Optional[Path] = None) -> Dict[str, float]:
    """Re-measure the named benchmarks once; returns their fresh ``min``s.

    ``names`` are pytest-benchmark fullnames, which double as pytest
    node ids relative to the repo root.  Failures to re-measure (missing
    node, crash) simply yield no entry — the caller then falls back to
    the originally recorded timing.
    """
    root = ROOT if root is None else root
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "rerun.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            *names,
            "-q",
            f"--benchmark-json={out}",
        ]
        proc = subprocess.run(cmd, cwd=root, env=env)
        if proc.returncode != 0 or not out.exists():
            return {}
        return load_mins(out)


def main(
    argv: Optional[List[str]] = None,
    rerun: Callable[[List[str]], Dict[str, float]] = rerun_mins,
) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current",
        type=Path,
        default=None,
        help="current artifact (default: the highest-numbered BENCH_PR<k>.json)",
    )
    parser.add_argument(
        "--previous",
        type=Path,
        default=None,
        help="baseline artifact (default: the newest artifact below the "
        "current one recorded on the same CPU model)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"failure ratio for shared benchmarks (default {DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--no-retry",
        action="store_true",
        help="fail immediately instead of re-measuring flagged benchmarks "
        "once (best-of-2)",
    )
    args = parser.parse_args(argv)

    artifacts = find_artifacts()
    current_path = args.current
    if current_path is None:
        if not artifacts:
            print("no BENCH_PR<k>.json artifacts found; nothing to check")
            return 0
        current_path = artifacts[-1][1]
    previous_path = args.previous
    if previous_path is None:
        match = ARTIFACT_RE.match(current_path.name)
        if match:  # the artifact right below the current PR number
            cur_k = int(match.group(1))
            older = [p for k, p in artifacts if k < cur_k]
        else:  # custom name: baseline on the newest recorded artifact
            older = [
                p for _, p in artifacts if p.resolve() != current_path.resolve()
            ]
        if not older:
            print(f"{current_path.name}: no previous artifact; nothing to check")
            return 0
        cpu = artifact_cpu(current_path)
        same_cpu = [p for p in older if artifact_cpu(p) == cpu]
        if not same_cpu:
            print(
                f"{current_path.name}: no older artifact was recorded on its "
                f"CPU ({cpu or 'unknown'}); nothing to compare"
            )
            return 0
        previous_path = same_cpu[-1]
    else:
        cur_cpu, prev_cpu = artifact_cpu(current_path), artifact_cpu(previous_path)
        if cur_cpu != prev_cpu:
            print(
                f"warning: {current_path.name} was recorded on "
                f"{cur_cpu or 'an unknown CPU'} and {previous_path.name} on "
                f"{prev_cpu or 'an unknown CPU'}; their timings are compared "
                "as requested, but they are not from the same CPU"
            )

    current = load_mins(current_path)
    previous = load_mins(previous_path)
    print(f"comparing {current_path.name} against {previous_path.name} "
          f"(threshold {args.threshold:g}x on per-benchmark min)")
    for group in missing_groups(current, previous):
        print(f"warning: benchmark group {group} is missing from "
              f"{current_path.name} (recorded in {previous_path.name}); "
              "its benchmarks are not compared")
    lines, failures = compare(current, previous, args.threshold)
    for line in lines:
        print("  " + line)
    retry = not args.no_retry
    if failures and retry:
        # A re-measurement runs on the *current* checkout, so it is only
        # comparable when the current artifact was recorded from it —
        # auditing a historical artifact must not be whitewashed by
        # today's (possibly faster) code.
        recorded, head = artifact_commit(current_path), head_commit()
        if recorded is not None and head is not None and recorded != head:
            print(
                f"skipping best-of-2 re-measurement: {current_path.name} "
                f"records commit {recorded[:12]} but the checkout is at "
                f"{head[:12]} (fresh timings would not be comparable)"
            )
            retry = False
    if failures and retry:
        # Best-of-2: re-measure only what was flagged; noise does not
        # reproduce, real regressions do.
        print(
            f"{len(failures)} benchmark(s) flagged; re-measuring once "
            "before failing (best-of-2)"
        )
        fresh = rerun(failures)
        for name in failures:
            if name in fresh:
                current[name] = min(current[name], fresh[name])
        lines, failures = compare(current, previous, args.threshold)
        print("after re-measurement:")
        for line in lines:
            if any(line.startswith(name + ":") for name in set(fresh) | set(failures)):
                print("  " + line)
    if failures:
        print(f"{len(failures)} benchmark(s) regressed past {args.threshold:g}x")
        return 1
    shared = len(set(current) & set(previous))
    summary = f"OK: {shared} shared benchmark(s) within {args.threshold:g}x"
    # New benchmarks (no baseline in the previous artifact) are graced —
    # reported above, counted here, never a failure.  Removed ones too.
    new = len(set(current) - set(previous))
    removed = len(set(previous) - set(current))
    if new:
        summary += f"; {new} new (no baseline, graced)"
    if removed:
        summary += f"; {removed} removed"
    print(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
