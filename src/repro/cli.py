"""Command-line interface: ``repro <command>`` (or ``python -m repro``).

Commands
--------

``repro profile``
    Run the simulated profiling campaign (E1) and print the Table I
    reproduction.
``repro design [--source table1|campaign|illustrative]``
    Run Steps 2-4 and print the BML candidates, roles and thresholds.
``repro combination RATE [RATE ...]``
    Print the ideal BML combination (Step 5) for the given rates.
``repro simulate [--days N] [--seed S] [--window W] [--csv DIR]``
    Full Fig. 5 replay: four scenarios, per-day energies, headline
    overhead statistics.
``repro experiment {table1,fig1,fig2,fig3,fig4,fig5}``
    Regenerate one paper artifact and print its series/rows.
``repro scenario list [--tag TAG]``
    Show the declarative scenario registry.
``repro scenario show NAME``
    Print one scenario spec as JSON (``from_dict``-compatible).
``repro scenario run [NAME ...|--all] [--jobs N] [--days D] [--csv DIR]
[--save DIR]``
    Run scenarios through the one execution path, optionally fanned out
    over worker processes; ``--save`` persists every run into a
    :class:`~repro.results.store.RunStore` directory.
``repro scenario diff A B [--store DIR]``
    Compare two persisted runs (run ids in the store, or paths to run
    directories): headline metric deltas, per-day energy deltas and spec
    field changes.
``repro scenario report [NAME ...] [--store DIR ...] [--baseline NAME]
[--prune N] [--facet AXIS]``
    Aggregate the latest stored run of each scenario into a suite report
    (summary table, savings vs a baseline); ``--prune N`` first applies
    the store's retention policy (keep each scenario's newest N runs).
    ``--store`` repeats to federate several stores (newest record per
    scenario wins — the half-sweep-per-host case); ``--facet AXIS``
    adds per-axis aggregate tables for sweep-minted runs.
``repro sweep list|show|expand|run``
    Parametric scenario grids: list the registered sweeps, show one as
    JSON, expand one into its minted scenario specs, or run the whole
    grid through the suite runner (same fan-out, checkpoint and
    fault-tolerance options as ``scenario run``).
``repro serve FEED --dir DIR [--resume] [--max-rate R] [--window W]``
    Streaming provisioning daemon: follow a growing rate feed (one
    rate per line, ``END`` terminates), emit the batch engine's exact
    reconfiguration decisions into a crash-safe journal under DIR, and
    checkpoint so ``--resume`` continues exactly after any crash.
    ``repro serve --status --dir DIR`` prints the daemon's health file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import experiments
from .analysis.tables import render_table, write_csv
from .core.bml import design
from .core.prediction import LookAheadMaxPredictor
from .core.profiles import illustrative_profiles, table_i_profiles
from .profiling.harness import ProfilingCampaign
from .profiling.hardware import paper_hardware

__all__ = ["main", "build_parser"]


def _suite_run_options() -> argparse.ArgumentParser:
    """The execution options ``scenario run`` and ``sweep run`` share."""
    opts = argparse.ArgumentParser(add_help=False)
    opts.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = in-process)"
    )
    opts.add_argument(
        "--engine",
        choices=("twophase", "reference"),
        default=None,
        help="replay BML-policy scenarios on the event-driven two-phase "
             "engine or its per-second reference (other policies keep "
             "their engine)",
    )
    opts.add_argument(
        "--stats", action="store_true",
        help="print replay statistics (segments, serving sets, batches, "
             "per-phase wall time)",
    )
    opts.add_argument(
        "--save", type=Path, default=None,
        help="persist every run into a run store at DIR as it completes",
    )
    opts.add_argument(
        "--resume", action="store_true",
        help="skip scenarios whose results the --save store already "
             "holds (checkpoint/resume; requires --save)",
    )
    opts.add_argument(
        "--keep-going", action="store_true",
        help="run every scenario even when some fail: survivors are "
             "reported normally, failures go to stderr and the exit "
             "code is 2",
    )
    opts.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="attempts per scenario before it is declared failed "
             "(default 1: no retry)",
    )
    opts.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-chunk deadline in seconds with --jobs > 1 (a hung "
             "worker is killed and replaced; the scenario it was running "
             "is charged an attempt, the chunk's unstarted ones rerun)",
    )
    opts.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="cap fan-out chunks at N scenarios (finer dispatch/retry "
             "granularity; shared-memory traces keep it cheap)",
    )
    return opts


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and ``--help`` docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "BML energy-proportional data centers "
            "(reproduction of Villebonnet et al., CLUSTER 2016)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prof = sub.add_parser("profile", help="run the Step 1 profiling campaign")
    p_prof.add_argument("--noise", type=float, default=0.05, help="wattmeter noise (W)")
    p_prof.add_argument("--seed", type=int, default=0)

    p_design = sub.add_parser("design", help="run Steps 2-4 and print thresholds")
    p_design.add_argument(
        "--source",
        choices=("table1", "campaign", "illustrative"),
        default="table1",
        help="where Step 1 profiles come from",
    )

    p_combo = sub.add_parser("combination", help="Step 5 combination for given rates")
    p_combo.add_argument("rates", type=float, nargs="+")
    p_combo.add_argument("--method", choices=("greedy", "ideal"), default="greedy")

    p_sim = sub.add_parser("simulate", help="full Fig. 5 World Cup replay")
    p_sim.add_argument("--days", type=int, default=87)
    p_sim.add_argument("--seed", type=int, default=1998)
    p_sim.add_argument("--window", type=int, default=378, help="look-ahead (s)")
    p_sim.add_argument("--method", choices=("greedy", "ideal"), default="greedy")
    p_sim.add_argument(
        "--policy",
        choices=("bml", "transition-aware"),
        default="bml",
        help="scheduler for the BML scenario",
    )
    p_sim.add_argument(
        "--engine",
        choices=("twophase", "reference"),
        default=None,
        help="replay the BML scenario on the event-driven two-phase engine "
             "or its per-second reference instead of the fast plan executor",
    )
    p_sim.add_argument(
        "--stats", action="store_true",
        help="print replay statistics (segments, serving sets, batches)",
    )
    p_sim.add_argument("--csv", type=Path, default=None, help="dump series to DIR")
    p_sim.add_argument(
        "--save", type=Path, default=None,
        help="persist the four scenario runs into a run store at DIR",
    )

    p_trace = sub.add_parser(
        "trace", help="synthesize a WC98-shaped workload trace to a file"
    )
    p_trace.add_argument("out", type=Path, help="output path (.npz or .csv)")
    p_trace.add_argument("--days", type=int, default=7)
    p_trace.add_argument("--seed", type=int, default=1998)
    p_trace.add_argument("--peak", type=float, default=5000.0)
    p_trace.add_argument(
        "--wc98-binary",
        action="store_true",
        help="also write .log.gz files in the original archive record format",
    )

    p_exp = sub.add_parser("experiment", help="regenerate one paper artifact")
    p_exp.add_argument(
        "name", choices=("table1", "fig1", "fig2", "fig3", "fig4", "fig5")
    )
    p_exp.add_argument("--days", type=int, default=87, help="fig5 trace length")
    p_exp.add_argument("--csv", type=Path, default=None, help="dump series to DIR")

    run_opts = _suite_run_options()
    p_scen = sub.add_parser("scenario", help="declarative scenario registry")
    scen_sub = p_scen.add_subparsers(dest="scenario_command", required=True)
    p_list = scen_sub.add_parser("list", help="show registered scenarios")
    p_list.add_argument("--tag", default=None, help="only scenarios with TAG")
    p_show = scen_sub.add_parser("show", help="print one spec as JSON")
    p_show.add_argument("name")
    p_run = scen_sub.add_parser(
        "run", parents=[run_opts], help="run scenarios by name"
    )
    p_run.add_argument("names", nargs="*", help="registry names (see list)")
    p_run.add_argument(
        "--all", action="store_true", help="run every registered scenario"
    )
    p_run.add_argument(
        "--days", type=int, default=None,
        help="override every scenario's workload length (days)",
    )
    p_run.add_argument("--csv", type=Path, default=None, help="dump series to DIR")
    p_diff = scen_sub.add_parser(
        "diff", help="compare two persisted runs (metrics, series, spec)"
    )
    p_diff.add_argument("run_a", help="run id in --store, or a run directory")
    p_diff.add_argument("run_b", help="run id in --store, or a run directory")
    p_diff.add_argument(
        "--store", type=Path, default=Path("runs"),
        help="run store directory resolving bare run ids (default: runs/)",
    )
    p_diff.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="write the full diff as JSON to FILE ('-' for stdout)",
    )
    p_diff.add_argument(
        "--csv", type=Path, default=None, metavar="FILE",
        help="write metric/spec delta rows as CSV to FILE",
    )
    p_report = scen_sub.add_parser(
        "report", help="aggregate stored runs into a suite report"
    )
    p_report.add_argument(
        "names", nargs="*",
        help="scenario names to include (default: every stored scenario)",
    )
    p_report.add_argument(
        "--store", type=Path, action="append", default=None,
        help="run store directory (default: runs/); repeat to federate "
             "several stores — the newest record per scenario wins",
    )
    p_report.add_argument(
        "--baseline", default=None,
        help="scenario name to compute savings against",
    )
    p_report.add_argument(
        "--csv", type=Path, default=None, help="dump series to DIR"
    )
    p_report.add_argument(
        "--prune", type=int, default=None, metavar="N",
        help="first prune the store to each scenario's newest N runs "
             "(single --store only)",
    )
    p_report.add_argument(
        "--facet", action="append", default=None, metavar="AXIS",
        help="add an aggregate table grouped by this sweep axis "
             "(repeatable; see 'repro sweep list')",
    )

    p_sweep = sub.add_parser("sweep", help="parametric scenario grids")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)
    sw_list = sweep_sub.add_parser("list", help="show registered sweeps")
    sw_list.add_argument("--tag", default=None, help="only sweeps with TAG")
    sw_show = sweep_sub.add_parser("show", help="print one sweep as JSON")
    sw_show.add_argument("name")
    sw_expand = sweep_sub.add_parser(
        "expand", help="mint a sweep's scenario specs"
    )
    sw_expand.add_argument("name")
    sw_expand.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="only the first N grid points",
    )
    sw_expand.add_argument(
        "--json", action="store_true",
        help="print the minted specs as a JSON list (from_dict-compatible)",
    )
    sw_run = sweep_sub.add_parser(
        "run", parents=[run_opts],
        help="run a whole grid through the suite runner",
    )
    sw_run.add_argument("name")
    sw_run.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="only the first N grid points",
    )
    sw_run.add_argument(
        "--baseline", default=None,
        help="grid-point name to compute savings against",
    )
    sw_run.add_argument(
        "--facet", action="append", default=None, metavar="AXIS",
        help="add an aggregate table grouped by this sweep axis "
             "(repeatable)",
    )

    p_serve = sub.add_parser(
        "serve", help="streaming provisioning daemon over a growing feed"
    )
    p_serve.add_argument(
        "feed", type=Path, nargs="?", default=None,
        help="rate feed to follow (one rate per line; 'END' terminates)",
    )
    p_serve.add_argument(
        "--dir", type=Path, default=Path("serve"), dest="state_dir",
        help="state directory: journal, checkpoints, health (default: serve/)",
    )
    p_serve.add_argument(
        "--resume", action="store_true",
        help="continue from the directory's checkpoint (exact resume: "
             "the final journal is byte-identical to an uninterrupted run)",
    )
    p_serve.add_argument(
        "--status", action="store_true",
        help="print the daemon's health file and exit",
    )
    p_serve.add_argument(
        "--max-rate", type=float, default=5000.0,
        help="largest rate the combination table must cover (req/s)",
    )
    p_serve.add_argument(
        "--window", type=int, default=378, help="look-ahead window (s)"
    )
    p_serve.add_argument(
        "--method", choices=("greedy", "ideal"), default="greedy"
    )
    p_serve.add_argument(
        "--poll", type=float, default=0.05, metavar="S",
        help="feed poll interval in seconds",
    )
    p_serve.add_argument(
        "--stall-timeout", type=float, default=5.0, metavar="S",
        help="seconds without feed data before health flips to 'stalled' "
             "(the daemon holds the last plan and keeps listening)",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=3600, metavar="N",
        help="samples between periodic checkpoints",
    )
    p_serve.add_argument(
        "--max-polls", type=int, default=None, metavar="N",
        help="stop (resumable) after N feed polls — smoke tests",
    )
    return parser


def _cmd_profile(args: argparse.Namespace) -> int:
    campaign = ProfilingCampaign(wattmeter_noise=args.noise, seed=args.seed)
    reports = experiments.run_table1(campaign)
    rows = [r.as_table_row() for r in reports]
    print(render_table(rows, title="Table I (simulated profiling campaign)"))
    return 0


def _profiles_from_source(source: str):
    if source == "table1":
        return table_i_profiles()
    if source == "illustrative":
        return illustrative_profiles()
    return ProfilingCampaign().profiles(paper_hardware())


def _cmd_design(args: argparse.Namespace) -> int:
    infra = design(_profiles_from_source(args.source))
    print(infra.describe())
    return 0


def _cmd_combination(args: argparse.Namespace) -> int:
    infra = design(table_i_profiles())
    rows = []
    for rate in args.rates:
        combo = infra.combination_for(rate, method=args.method)
        rows.append(
            {
                "rate": rate,
                "combination": combo.describe(),
                "power_w": round(combo.power(min(rate, combo.capacity)), 2),
                "capacity": combo.capacity,
                "nodes": combo.total_nodes,
            }
        )
    print(render_table(rows, title=f"Step 5 combinations ({args.method})"))
    return 0


def _replay_stats_rows(results) -> list:
    """Replay-engine telemetry rows for ``--stats`` (scenario, engine,
    segments, unique serving sets, batch count, reconfiguration episodes
    replayed from templates, and the per-phase wall-time breakdown of
    the vectorized control plane — blank where an engine does not
    produce the figure)."""
    rows = []
    for res in results:
        meta = res.meta
        if meta.get("engine") is None:
            continue
        phase_s = meta.get("phase_s") or {}
        row = {
            "scenario": res.scenario,
            "engine": meta["engine"],
            "segments": meta.get("segments", ""),
            "serving_sets": meta.get("serving_sets", ""),
            "batches": meta.get("batches", ""),
            "templated": meta.get("templated_episodes", ""),
        }
        for phase in ("predict", "control", "evaluate", "settle"):
            v = phase_s.get(phase)
            row[f"{phase}_s"] = "" if v is None else f"{v:.3f}"
        rows.append(row)
    return rows


def _print_replay_stats(results) -> None:
    rows = _replay_stats_rows(results)
    if not rows:
        print(
            "no replay statistics: every scenario ran on the fast plan "
            "executor (pass --engine to use the event-driven simulator)"
        )
        return
    print(render_table(rows, title="replay statistics"))


def _cmd_simulate(args: argparse.Namespace) -> int:
    engine = getattr(args, "engine", None)
    if engine is not None and getattr(args, "policy", "bml") != "bml":
        raise SystemExit("simulate: --engine replays the bml policy only")
    outcome = experiments.run_fig5(
        n_days=args.days,
        seed=args.seed,
        predictor=LookAheadMaxPredictor(args.window),
        method=args.method,
        policy=getattr(args, "policy", "bml"),
        engine=None if engine is None else f"event-{engine}",
    )
    print(render_table(outcome.summary_rows(), title="Fig. 5 scenarios"))
    if getattr(args, "stats", False):
        print()
        _print_replay_stats(outcome.results)
    print()
    from .analysis.charts import sparkline

    width = 60
    for res in outcome.results:
        daily = res.per_day_energy_kwh()
        print(f"{res.scenario:>22} {sparkline(daily, width=min(width, len(daily)))}")
    print(f"{'(per-day energy, kWh)':>22}")
    print()
    print(
        "BML vs theoretical lower bound (per-day energy overhead): "
        + outcome.overhead.describe()
    )
    print("paper reports: avg 32% / min 6.8% / max 161.4%")
    if args.csv:
        args.csv.mkdir(parents=True, exist_ok=True)
        fig = outcome.figure()
        write_csv(args.csv / "fig5_daily_energy.csv", fig.rows())
        write_csv(args.csv / "fig5_summary.csv", outcome.summary_rows())
        print(f"series written to {args.csv}")
    if getattr(args, "save", None):
        from .results import RunStore

        store = RunStore(args.save)
        for run_id in outcome.save(store):
            print(f"saved {run_id} -> {store.root / run_id}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .analysis.charts import sparkline
    from .workload.worldcup import synthesize

    trace = synthesize(n_days=args.days, seed=args.seed, peak_rate=args.peak)
    if args.out.suffix == ".csv":
        trace.to_csv(args.out)
    elif args.out.suffix == ".npz":
        trace.to_npz(args.out)
    else:
        raise SystemExit(f"unsupported trace format {args.out.suffix!r}")
    print(f"wrote {args.out} ({args.days} days, peak {trace.peak:.0f} req/s)")
    print("load  " + sparkline(trace.values, width=64))
    if args.wc98_binary:
        from .workload.wc98format import write_records

        rng = np.random.default_rng(args.seed)
        base = 894_000_000
        for day in range(trace.n_days):
            sub = trace.day(day)
            # expand the per-second rates into request timestamps
            counts = np.round(sub.values).astype(np.int64)
            stamps = np.repeat(
                base + day * 86_400 + np.arange(len(sub)), counts
            )
            path = args.out.with_suffix("").with_name(
                f"{args.out.stem}_day{day:02d}.log.gz"
            )
            n = write_records(path, stamps, rng)
            print(f"wrote {path} ({n} records, archive format)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name
    if name == "table1":
        return _cmd_profile(argparse.Namespace(noise=0.05, seed=0))
    if name == "fig5":
        return _cmd_simulate(
            argparse.Namespace(
                days=args.days, seed=1998, window=378, method="greedy",
                csv=args.csv, save=None,
            )
        )
    fig = {
        "fig1": experiments.run_fig1,
        "fig2": experiments.run_fig2,
        "fig3": experiments.run_fig3,
        "fig4": experiments.run_fig4,
    }[name]()
    print(f"{fig.figure}: {fig.x_label} vs {fig.y_label}")
    for key, value in fig.annotations.items():
        print(f"  {key}: {value}")
    from .analysis.charts import line_chart

    print()
    print(
        line_chart(
            fig.series, width=72, height=16,
            x_label=fig.x_label, y_label=fig.y_label,
        )
    )
    print()
    step = max(1, len(next(iter(fig.series.values()))[0]) // 20)
    print(render_table(fig.rows(step=step)))
    if args.csv:
        args.csv.mkdir(parents=True, exist_ok=True)
        write_csv(args.csv / f"{fig.figure}.csv", fig.rows())
        print(f"series written to {args.csv}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json

    from . import scenarios

    if args.scenario_command == "list":
        rows = []
        for spec in (scenarios.by_tag(args.tag) if args.tag else scenarios.specs()):
            rows.append(
                {
                    "name": spec.name,
                    "policy": spec.scheduler.policy,
                    "workload": spec.workload.source,
                    "days": spec.workload.days,
                    "engine": spec.engine,
                    "tags": ",".join(spec.tags),
                }
            )
        print(render_table(rows, title="scenario registry"))
        return 0
    if args.scenario_command == "show":
        try:
            spec = scenarios.get(args.name)
        except scenarios.ScenarioError as exc:
            raise SystemExit(str(exc))
        print(json.dumps(spec.to_dict(), indent=2))
        return 0
    if args.scenario_command == "diff":
        return _cmd_scenario_diff(args)
    if args.scenario_command == "report":
        return _cmd_scenario_report(args)
    # run
    if args.all and args.names:
        raise SystemExit(
            "scenario run: --all runs the whole catalogue; it cannot be "
            "combined with explicit scenario names"
        )
    if args.all:
        specs = scenarios.specs()
        skipped = [s.name for s in specs if not s.workload.is_available()]
        if skipped:
            print(
                "skipping scenarios whose workload files are missing: "
                + ", ".join(skipped)
            )
        specs = [s for s in specs if s.workload.is_available()]
    elif args.names:
        try:
            specs = [scenarios.get(name) for name in args.names]
        except scenarios.ScenarioError as exc:
            raise SystemExit(str(exc))
    else:
        raise SystemExit("scenario run: give scenario names or --all")
    if args.days is not None:
        specs = [spec.with_days(args.days) for spec in specs]
    from .analysis.tables import render_suite
    from .results import ScenarioResult, SuiteReport

    def report_runs(runs, saved):
        report = SuiteReport.from_runs(runs)
        if report.results:
            print(render_suite(report, title="scenario suite"))
        if args.resume:
            resumed = [r.name for r in runs if isinstance(r, ScenarioResult)]
            if resumed:
                print(
                    "resumed from store (skipped): " + ", ".join(resumed)
                )
        for stored in saved:
            print(f"saved {stored.run_id} -> {stored.path}")
        if args.csv and report.results:
            from .analysis.figures import suite_series

            args.csv.mkdir(parents=True, exist_ok=True)
            fig = suite_series(report)
            write_csv(args.csv / "scenario_daily_energy.csv", fig.rows())
            write_csv(args.csv / "scenario_summary.csv", report.rows())
            print(f"series written to {args.csv}")
        return report

    return _run_suite_command(args, specs, "scenario run", report_runs)


def _run_suite_command(
    args: argparse.Namespace, specs, command: str, report_runs
) -> int:
    """The run path ``scenario run`` and ``sweep run`` share.

    Applies ``--engine`` to the bml-policy specs, sets up the
    ``--save``/``--resume`` store and the ``--retries``/``--timeout``
    policy, and runs the suite.  Exit 130 when a signal stopped it (the
    completed runs are checkpointed; ``--resume`` finishes the rest),
    exit 1 on a failure ``run_suite`` could not degrade.  After
    ``--stats``, ``report_runs(runs, saved)`` prints the command's own
    report (``saved``: the store entries this run added) and returns
    its :class:`~repro.results.SuiteReport`, whose failures go to
    stderr with exit 2.
    """
    from dataclasses import replace

    from . import scenarios
    from .results import RunStore

    if args.engine is not None:
        # The event-driven simulator replays the BML decision rule; the
        # other policies (transition-aware, the bounds) keep their engine.
        unchanged = [s.name for s in specs if s.scheduler.policy != "bml"]
        if unchanged:
            print(
                "--engine applies to bml-policy scenarios only; "
                "unchanged: " + ", ".join(unchanged)
            )
        engine = f"event-{args.engine}"
        specs = [
            replace(s, engine=engine) if s.scheduler.policy == "bml" else s
            for s in specs
        ]
    store = RunStore(args.save) if args.save else None
    if args.resume and store is None:
        raise SystemExit(f"{command}: --resume requires --save DIR")
    retry = None
    if args.retries != 1 or args.timeout is not None:
        try:
            retry = scenarios.RetryPolicy(
                max_attempts=args.retries, timeout_s=args.timeout
            )
        except scenarios.ScenarioError as exc:
            raise SystemExit(f"{command}: {exc}")
    saved_before = {s.run_id for s in store.list()} if store else set()
    try:
        runs = scenarios.run_suite(
            specs,
            jobs=args.jobs,
            keep_going=args.keep_going,
            retry=retry,
            store=store,
            resume=args.resume,
            chunk_size=args.chunk_size,
        )
    except scenarios.SuiteInterrupted as exc:
        # Graceful shutdown: completed scenarios are checkpointed, the
        # rest re-run under --resume.  130 = killed-by-signal exit.
        print(f"{command}: {exc}", file=sys.stderr)
        return 130
    except Exception as exc:
        # Fatal: a failure run_suite could not degrade (keep_going off,
        # or infrastructure trouble).  Exit 1 with the message, not a
        # traceback.
        print(
            f"{command} failed: {type(exc).__name__}: {exc}", file=sys.stderr
        )
        return 1
    if args.stats:
        _print_replay_stats([r.result for r in runs if hasattr(r, "result")])
        print()
    saved = (
        [s for s in store.list() if s.run_id not in saved_before]
        if store
        else []
    )
    report = report_runs(runs, saved)
    if report.failures:
        print(
            render_table(
                report.failure_rows(),
                title=f"failures ({len(report.failures)})",
            ),
            file=sys.stderr,
        )
        return 2
    return 0


def _load_stored_run(arg: str, store_dir: Path):
    """A diff operand: a run directory path, or a run id in the store."""
    from .results import RunStore, load_run_dir

    path = Path(arg)
    try:
        if path.is_dir() and (path / "result.json").exists():
            return load_run_dir(path)
        return RunStore(store_dir).load(arg)
    except ValueError as exc:
        # StoreError/ResultError and malformed-JSON errors are all
        # ValueErrors; surface them as clean CLI messages, not tracebacks
        raise SystemExit(f"{arg}: {exc}")


def _cmd_scenario_diff(args: argparse.Namespace) -> int:
    import json

    from .analysis.charts import sparkline
    from .results import diff

    a = _load_stored_run(args.run_a, args.store)
    b = _load_stored_run(args.run_b, args.store)
    d = diff(a, b)
    if args.json is not None:
        payload = json.dumps(d.to_json_dict(), indent=2) + "\n"
        if str(args.json) == "-":
            print(payload, end="")
        else:
            args.json.parent.mkdir(parents=True, exist_ok=True)
            args.json.write_text(payload)
            print(f"diff written to {args.json}")
    if args.csv is not None:
        args.csv.parent.mkdir(parents=True, exist_ok=True)
        write_csv(args.csv, d.csv_rows())
        # keep stdout a clean JSON stream when --json - is also given
        notice_stream = sys.stderr if str(args.json) == "-" else sys.stdout
        print(f"diff rows written to {args.csv}", file=notice_stream)
    if args.json is not None or args.csv is not None:
        return 0
    print(f"a: {args.run_a}  ({a.name}, {a.days} days, engine {a.engine})")
    print(f"b: {args.run_b}  ({b.name}, {b.days} days, engine {b.engine})")
    print(d.describe())
    print()
    print(render_table(d.metric_rows(), title="headline metrics (b vs a)"))
    if d.spec_changes:
        print()
        print(render_table(d.spec_rows(), title="spec changes"))
    if d.per_day_delta_j is not None and len(d.per_day_delta_j):
        delta_kwh = d.per_day_delta_j / 3.6e6
        print()
        print(
            "per-day energy delta (kWh): "
            f"mean {delta_kwh.mean():+.3f}, "
            f"min {delta_kwh.min():+.3f}, max {delta_kwh.max():+.3f}"
        )
        if len(delta_kwh) > 1:
            print("delta/day  " + sparkline(delta_kwh, width=min(60, len(delta_kwh))))
    return 0


def _print_facets(report, facets) -> None:
    """Render one aggregate table per requested sweep axis."""
    for axis in facets:
        try:
            rows = report.facet_rows(axis)
        except ValueError as exc:
            raise SystemExit(f"--facet {axis}: {exc}")
        print()
        print(render_table(rows, title=f"facet: {axis}"))


def _cmd_scenario_report(args: argparse.Namespace) -> int:
    from .analysis.tables import render_suite
    from .results import RunStore, SuiteReport

    from .results import load_run_dir, merged_results

    stores = [RunStore(p) for p in (args.store or [Path("runs")])]
    if args.prune is not None:
        if len(stores) > 1:
            raise SystemExit(
                "scenario report: --prune mutates a store and is "
                "ambiguous across several --store directories; prune "
                "them one at a time"
            )
        if args.prune < 1:
            raise SystemExit(
                "scenario report: --prune keeps each scenario's newest N "
                "runs; N must be >= 1"
            )
        removed = stores[0].prune(keep_last=args.prune)
        if removed:
            print(
                f"pruned {len(removed)} run(s) past keep-last={args.prune}: "
                + ", ".join(removed)
            )
    roots = ", ".join(str(s.root) for s in stores)
    if len(stores) == 1:
        store = stores[0]
        stored = store.list()
        if not stored:
            raise SystemExit(f"no stored runs in {store.root}")
        # one directory scan: stored is in save order, so the last entry
        # per name is that scenario's latest run
        latest = {s.name: s for s in stored}
        names = args.names or list(dict.fromkeys(s.name for s in stored))
        missing = [name for name in names if name not in latest]
        if missing:
            raise SystemExit(
                f"no stored run for {missing[0]!r} in {store.root} "
                f"(stored: {', '.join(sorted(latest))})"
            )
        records = [load_run_dir(latest[name].path) for name in names]
    else:
        # federated view: newest record per scenario across all stores
        merged = {r.name: r for r in merged_results(stores)}
        if not merged:
            raise SystemExit(f"no stored runs in any of: {roots}")
        names = args.names or list(merged)
        missing = [name for name in names if name not in merged]
        if missing:
            raise SystemExit(
                f"no stored run for {missing[0]!r} in any of: {roots} "
                f"(stored: {', '.join(sorted(merged))})"
            )
        records = [merged[name] for name in names]
    try:
        report = SuiteReport(tuple(records), baseline=args.baseline)
    except ValueError as exc:
        raise SystemExit(str(exc))
    title = f"suite report ({roots}, latest run per scenario)"
    print(render_suite(report, title=title))
    if args.facet:
        _print_facets(report, args.facet)
    if args.baseline:
        base = report.get(args.baseline)
        print()
        print(f"savings vs {args.baseline} ({base.total_energy_kwh:.2f} kWh)")
    if args.csv:
        from .analysis.figures import suite_series

        args.csv.mkdir(parents=True, exist_ok=True)
        fig = suite_series(report)
        write_csv(args.csv / "report_daily_energy.csv", fig.rows())
        write_csv(args.csv / "report_summary.csv", report.rows())
        print(f"series written to {args.csv}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from . import scenarios

    if args.sweep_command == "list":
        rows = []
        for sweep in scenarios.sweeps():
            if args.tag and args.tag not in sweep.tags:
                continue
            rows.append(
                {
                    "name": sweep.name,
                    "base": sweep.base,
                    "size": sweep.size,
                    "axes": sweep.axes_summary(),
                    "tags": ",".join(sweep.tags),
                }
            )
        print(render_table(rows, title="sweep registry"))
        return 0
    try:
        sweep = scenarios.get_sweep(args.name)
    except scenarios.ScenarioError as exc:
        raise SystemExit(str(exc))
    if args.sweep_command == "show":
        print(json.dumps(sweep.to_dict(), indent=2))
        return 0
    try:
        specs = sweep.expand()
    except scenarios.ScenarioError as exc:
        raise SystemExit(str(exc))
    if args.limit is not None:
        if args.limit < 1:
            raise SystemExit(f"sweep {args.sweep_command}: --limit must be >= 1")
        specs = specs[: args.limit]
    if args.sweep_command == "expand":
        if args.json:
            print(json.dumps([s.to_dict() for s in specs], indent=2))
            return 0
        rows = [
            {
                "name": s.name,
                "policy": s.scheduler.policy,
                "workload": s.workload.source,
                "days": s.workload.days,
                "peak": s.workload.peak_rate,
                "seed": s.workload.seed,
            }
            for s in specs
        ]
        print(
            render_table(
                rows, title=f"sweep {sweep.name} ({len(specs)}/{sweep.size} points)"
            )
        )
        return 0
    # run: the same execution/checkpoint path as `scenario run`
    from .analysis.tables import render_suite
    from .results import SuiteReport

    def report_runs(runs, saved):
        try:
            report = SuiteReport.from_runs(runs, baseline=args.baseline)
        except ValueError as exc:
            raise SystemExit(f"sweep run: {exc}")
        if report.results:
            print(render_suite(report, title=f"sweep {sweep.name}"))
        if args.facet:
            _print_facets(report, args.facet)
        if saved:
            print(f"saved {len(saved)} run(s) into {args.save}")
        return report

    return _run_suite_command(args, specs, "sweep run", report_runs)


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .serve import ServeConfig, ServeDaemon, ServeError, read_health
    from .serve.journal import JournalCorruptError

    if args.status:
        health = read_health(args.state_dir)
        if health is None:
            print(
                f"no serve health file in {args.state_dir}", file=sys.stderr
            )
            return 1
        print(json.dumps(health, indent=2, sort_keys=True))
        return 0
    if args.feed is None:
        raise SystemExit("serve: give a feed file (or --status)")
    config = ServeConfig(
        feed=args.feed,
        state_dir=args.state_dir,
        window=args.window,
        max_rate=args.max_rate,
        method=args.method,
        poll_s=args.poll,
        stall_timeout_s=args.stall_timeout,
        checkpoint_every=args.checkpoint_every,
    )
    try:
        daemon = ServeDaemon(config, resume=args.resume)
        status = daemon.run(max_polls=args.max_polls)
    except (ServeError, JournalCorruptError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    print(
        f"serve {status}: {daemon.engine.samples_in} samples in, "
        f"{daemon.journal.count} decision(s) journaled, "
        f"{daemon.rejected} record(s) rejected "
        f"(generation {daemon.generation}, state in {config.state_dir})"
    )
    return 0 if status == "done" else 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    args = build_parser().parse_args(argv)
    handlers = {
        "profile": _cmd_profile,
        "design": _cmd_design,
        "combination": _cmd_combination,
        "simulate": _cmd_simulate,
        "trace": _cmd_trace,
        "experiment": _cmd_experiment,
        "scenario": _cmd_scenario,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
