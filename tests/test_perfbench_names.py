"""The names ``perfbench/`` looks up in ``repro`` must exist.

The benchmark reaches into the package from outside: ``spans.instrument``
wraps entry points by name, and ``iteration._cache_stats`` reads two
telemetry functions in every sample.  Deleting one of those names breaks
no other test; it shows only as a benchmark run in which every sample
errors.  The check runs in a fresh interpreter because ``instrument``
patches modules process-wide.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_CHILD = """
import json, sys
sys.path.insert(0, "perfbench")
from iteration import _cache_stats
from spans import Tracer, instrument

instrument(Tracer())
print(json.dumps(_cache_stats()))
"""


def test_instrument_and_cache_stats_find_their_names():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout.splitlines()[-1])
    # The keys iteration.py's per-layer metrics read.
    assert {"table_cache_hits", "table_cache_misses"} <= set(stats["kernel"])
    assert {"trace_builds", "worker_trace_builds", "segments_shared"} <= set(
        stats["fanout"]
    )
