"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in
:meth:`setup`, runs its cold timed region in :meth:`timed` and the same
work again in :meth:`warm`, then checks the outputs in :meth:`check`.
``iteration.py`` calls :meth:`setup` once per run and the rest in a
child it forks for each sample, so process-wide caches hold only what
set-up put there when :meth:`timed` starts.  A workload that writes
files removes an earlier sample's in :meth:`fresh`, before the timer
starts.

Call sites look ``repro`` functions up through their module at call
time, so a traced sample reaches the wrappers ``spans.instrument``
installed after set-up.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

#: The seed whose outputs ``expected.json`` pins.
DEFAULT_SEED = 7
#: Where the pinned outputs live.
EXPECTED = Path(__file__).with_name("expected.json")
#: The paper's published mean overhead of BML over the lower bound.
PAPER_BML_OVERHEAD = 0.32


def _expected(workload: str) -> dict:
    return json.loads(EXPECTED.read_text())[workload]


class Outcome:
    """What one sample measured and checked, beyond its wall times."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: simulated statistics that must repeat exactly for a seed
        self.stats: Dict[str, object] = {}
        #: per-operation latencies (s) of the cold timed region
        self.latency_s: List[float] = []
        #: trace samples the cold timed region processed
        self.samples = 0
        #: how late the paced producer appended each open-loop chunk (s)
        self.gen_lag_s: List[float] = []
        self.notes: Dict[str, object] = {}

    def expect(self, ok: bool, problem: str, ops: int = 1) -> None:
        """Count ``ops`` operations, all failed unless ``ok``."""
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.problems.append(problem)


# ---------------------------------------------------------------------------
# fig5-87d
# ---------------------------------------------------------------------------


class Fig5:
    """The four paper scenarios over 87 synthesised WC98 days."""

    name = "fig5-87d"
    jobs = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.warm_runs = ()  # filled only by a warm repeat

    def setup(self) -> None:
        from repro.core.bml import design
        from repro.scenarios import registry

        self.specs = [registry.get(n) for n in registry.PAPER_SCENARIOS]
        workload = replace(self.specs[0].workload, seed=self.seed, days=87, pin_days=True)
        self.trace = workload.build()
        self.infra = design(self.specs[0].build_profiles())

    def _suite(self):
        import repro.scenarios

        return repro.scenarios.run_suite(
            self.specs, jobs=self.jobs, trace=self.trace, infra=self.infra
        )

    def timed(self) -> None:
        self.cold = self._suite()

    def warm(self) -> None:
        self.warm_runs = self._suite()

    def check(self, out: Outcome) -> None:
        cold = [r.result for r in self.cold]
        energies = [r.total_energy for r in cold]
        out.samples = len(self.trace) * len(cold)
        out.latency_s = []  # a batch: every result arrives at the end
        out.stats = {
            "reconfigurations": [r.n_reconfigurations for r in cold],
            "table_builds": self.infra.table_cache_misses,
        }
        names = [s.name for s in self.specs]
        lower, bml, perday, upper = (
            energies[names.index(n)]
            for n in ("paper-lower-bound", "paper-bml", "paper-upper-perday",
                      "paper-upper-global")
        )
        ordered = lower < bml < perday < upper
        pinned = _expected(self.name) if self.seed == DEFAULT_SEED else None
        for name, energy in zip(names, energies):
            ok = ordered
            if pinned is not None:
                ok = ok and float.hex(energy) == pinned["energy_j_hex"][name]
            out.expect(ok, f"{name}: energy {energy!r} failed its check")
        for run, energy in zip(self.warm_runs, energies):
            out.expect(
                run.result.total_energy == energy,
                f"{run.name}: warm energy differs from cold",
            )
        bml_run = self.cold[names.index("paper-bml")].result
        lb_run = self.cold[names.index("paper-lower-bound")].result
        overhead = float(np.mean(bml_run.overhead_vs(lb_run)))
        out.notes["bml_over_lower_bound"] = overhead
        out.notes["paper_bml_over_lower_bound"] = PAPER_BML_OVERHEAD
        out.notes["energy_kwh"] = dict(zip(names, (e / 3.6e6 for e in energies)))

    def pins(self) -> dict:
        names = [s.name for s in self.specs]
        return {
            "energy_j_hex": {
                n: float.hex(r.result.total_energy) for n, r in zip(names, self.cold)
            }
        }


# ---------------------------------------------------------------------------
# replay-183d
# ---------------------------------------------------------------------------


class DiurnalReplay:
    """183 days of an integer diurnal x weekly trace through the event replay."""

    name = "replay-183d"
    jobs = 1
    window = 378
    days = 183

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.warm_summary = None  # filled only by a warm repeat

    def setup(self) -> None:
        from repro.core.bml import design
        from repro.core.prediction import LookAheadMaxPredictor
        from repro.core.profiles import table_i_profiles
        from repro.workload import patterns
        from repro.workload.trace import SECONDS_PER_DAY

        days = self.days
        duration = days * SECONDS_PER_DAY
        base = patterns.diurnal(duration, low=0.15, high=1.0, peak_hour=15.0)
        week = patterns.weekly(duration, 1.0, 0.9)
        shape = patterns.compose(base, [week])
        del base, week
        if self.seed != DEFAULT_SEED:
            # Same shape, seeded per-day level: +-3 % around the default.
            level = np.random.default_rng(self.seed).uniform(0.97, 1.03, days)
            shape = shape.reshape(days, SECONDS_PER_DAY) * level[:, None]
            shape = shape.ravel()
        values = np.round(shape * 3000.0)
        del shape
        self.trace = patterns.make_trace(values, f"diurnal-{days}d-synthetic")
        self.infra = design(table_i_profiles())
        self.table = self.infra.table(float(np.max(values)))
        self.predictor = LookAheadMaxPredictor(self.window)

    def _replay(self) -> dict:
        import repro.sim.loop

        result = repro.sim.loop.EventDrivenReplay(
            self.table, self.trace, predictor=self.predictor
        ).run()
        return {
            "energy": result.total_energy,
            "reconfigurations": result.n_reconfigurations,
            "segments": result.meta["segments"],
            "serving_sets": result.meta["serving_sets"],
            "served": result.qos(self.trace).served_fraction,
        }

    def timed(self) -> None:
        self.cold = self._replay()

    def warm(self) -> None:
        self.warm_summary = self._replay()

    def check(self, out: Outcome) -> None:
        cold = self.cold
        out.samples = len(self.trace)
        out.stats = {
            "reconfigurations": cold["reconfigurations"],
            "segments": cold["segments"],
            "serving_sets": cold["serving_sets"],
            "table_builds": self.infra.table_cache_misses,
        }
        ok = cold["served"] == 1.0
        if self.seed == DEFAULT_SEED:
            pinned = _expected(self.name)
            ok = (
                ok
                and float.hex(cold["energy"]) == pinned["energy_j_hex"]
                and cold["reconfigurations"] == pinned["reconfigurations"]
            )
        out.expect(ok, f"cold replay {cold!r} failed its check")
        if self.warm_summary is not None:
            out.expect(self.warm_summary == cold, "warm replay differs from cold")
        out.notes["energy_kwh"] = cold["energy"] / 3.6e6

    def pins(self) -> dict:
        return {
            "energy_j_hex": float.hex(self.cold["energy"]),
            "reconfigurations": self.cold["reconfigurations"],
        }


# ---------------------------------------------------------------------------
# fleet-slice
# ---------------------------------------------------------------------------


class FleetSlice:
    """The fleet-grid sweep at one trace seed, on a two-worker pool."""

    name = "fleet-slice"
    jobs = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.warm_runs = ()  # filled only by a warm repeat

    def setup(self) -> None:
        from repro.scenarios import registry

        sweep = registry.get_sweep("fleet-grid")
        axes = tuple(
            (axis, (self.seed,) if axis == "seed" else values)
            for axis, values in sweep.axes
        )
        self.specs = replace(sweep, axes=axes).expand()

    def fresh(self) -> None:
        """Remove the stores an earlier sample left behind."""
        for tag in ("cold", "warm"):
            shutil.rmtree(self.workdir / f"store-{tag}", ignore_errors=True)

    def _suite(self, tag: str):
        import repro.scenarios
        from repro.results.store import RunStore

        root = self.workdir / f"store-{tag}"
        runs = repro.scenarios.run_suite(
            self.specs, jobs=self.jobs, store=RunStore(root)
        )
        return runs, RunStore(root).load_all()

    def timed(self) -> None:
        self.cold, self.cold_records = self._suite("cold")

    def warm(self) -> None:
        self.warm_runs, _ = self._suite("warm")

    def check(self, out: Outcome) -> None:
        from repro.scenarios import ScenarioRun

        out.samples = sum(s.workload.days * 86400 for s in self.specs)
        stored = {r.name: r for r in self.cold_records}
        out.expect(
            len(stored) == len(self.cold_records) == len(self.specs),
            f"{len(self.cold_records)} records stored for {len(self.specs)} points",
        )
        reconfigs = []
        for spec, run in zip(self.specs, self.cold):
            ok = isinstance(run, ScenarioRun) and run.name == spec.name
            if ok:
                record = stored.get(spec.name)
                live = run.to_record()
                ok = record is not None and replace(
                    live, created_at=record.created_at
                ) == record
                reconfigs.append(run.result.n_reconfigurations)
            out.expect(ok, f"{spec.name}: outcome or stored record mismatch")
        for spec, cold, warm in zip(self.specs, self.cold, self.warm_runs):
            out.expect(
                isinstance(warm, ScenarioRun)
                and warm.result.total_energy == cold.result.total_energy,
                f"{spec.name}: warm energy differs from cold",
            )
        out.stats = {"reconfigurations": reconfigs}


# ---------------------------------------------------------------------------
# serve-stream
# ---------------------------------------------------------------------------


class ServeStream:
    """WC98-shaped 1 Hz days streamed through the serve daemon."""

    name = "serve-stream"
    jobs = 1
    chunk = 60
    #: open-loop feed rate (samples/s), about a fifth of the closed loop's
    rate = 20_000.0
    open_days = 1
    closed_days = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        from repro.core.bml import design
        from repro.core.profiles import table_i_profiles
        from repro.serve.daemon import ServeConfig
        from repro.workload.worldcup import WorldCupSynthesizer

        days = self.open_days + self.closed_days
        trace = WorldCupSynthesizer(n_days=days, seed=self.seed, peak_rate=3000).build()
        values = np.asarray(trace.values, dtype=np.float64)
        self.chunks = [
            values[i : i + self.chunk] for i in range(0, len(values), self.chunk)
        ]
        self.open_chunks = self.open_days * 86400 // self.chunk
        self.config = ServeConfig(
            feed=self.workdir / "feed.txt", state_dir=self.workdir / "serve-state"
        )
        self.table = design(table_i_profiles()).table(
            self.config.max_rate, self.config.method
        )

    def fresh(self) -> None:
        """Remove the feed and state directory an earlier sample left."""
        self.config.feed.unlink(missing_ok=True)
        shutil.rmtree(self.config.state_dir, ignore_errors=True)

    def timed(self) -> None:
        from pacing import PacedSource
        from repro.serve.daemon import ServeDaemon
        from repro.serve.source import TailFileSource, append_feed

        feed = self.config.feed

        def append(values, end=False):
            append_feed(feed, values, end=end)

        self.source = PacedSource(
            TailFileSource(feed, name=self.config.name),
            append,
            self.chunks,
            rate=self.rate,
            open_chunks=self.open_chunks,
        )
        self.daemon = ServeDaemon(self.config, table=self.table, source=self.source)
        self.status = self.daemon.run()

    def warm(self) -> None:
        """The closed-loop phase of :meth:`timed` is the warm figure."""

    def check(self, out: Outcome) -> None:
        from repro.serve import DecisionJournal, StreamingProvisioner
        from repro.serve.daemon import JOURNAL_FILE
        from repro.serve.source import END_SENTINEL

        src = self.source
        out.latency_s = list(src.latency_s)
        out.samples = (len(self.chunks) - self.open_chunks) * self.chunk
        out.gen_lag_s = list(src.lag_s)
        out.expect(self.status == "done", f"daemon ended {self.status!r}")
        out.expect(self.daemon.rejected == 0, f"{self.daemon.rejected} lines rejected")
        # The batch reference over the very feed the daemon read (untimed).
        lines = self.config.feed.read_text().splitlines()
        feed = np.array([float(x) for x in lines if x != END_SENTINEL])
        engine = StreamingProvisioner(self.table, window=self.config.window)
        batch = [d.to_payload() for d in engine.feed(feed) + engine.finalize()]
        with DecisionJournal(self.config.state_dir / JOURNAL_FILE) as journal:
            streamed = journal.payloads()
        for i in range(max(len(batch), len(streamed))):
            same = i < len(batch) and i < len(streamed) and batch[i] == streamed[i]
            out.expect(same, f"journal record {i} differs from the batch decision")
        out.stats = {
            "decisions": self.daemon.engine.decisions_out,
            "fsyncs": len(streamed),
            "samples_in": self.daemon.engine.samples_in,
        }

    def phases(self) -> Tuple[float, float, float]:
        """Open-loop wall, closed-loop wall and closed-loop CPU seconds."""
        src = self.source
        return (
            src.open_end - src.t0,
            src.closed_end - src.closed_start,
            src.closed_cpu_end - src.closed_cpu_start,
        )


WORKLOADS = {cls.name: cls for cls in (Fig5, DiurnalReplay, FleetSlice, ServeStream)}
