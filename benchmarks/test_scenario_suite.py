"""Scenario-subsystem benchmark: sweep the declarative catalogue.

The registry's non-paper scenarios — constrained nodes, bounded
inventories, power caps, degraded predictors, pattern workloads,
homogeneous baselines and the event-driven engine — all run through the
one execution path (:func:`repro.scenarios.run_suite`), shrunk to one
day each so the sweep stays cheap.  This is the benchmark-level guard
that every registered scenario stays runnable end to end.
"""

import pytest

from conftest import print_comparison
from repro import scenarios
from repro.results import SuiteReport


@pytest.mark.benchmark(group="scenario-suite")
def test_scenario_catalogue_sweep(benchmark):
    # Archive-backed scenarios (wc98) only run where the log files exist;
    # the sweep covers everything materialisable on this machine.
    specs = [
        spec.with_days(1)
        for spec in scenarios.specs()
        if "paper" not in spec.tags and spec.workload.is_available()
    ]
    assert len(specs) >= 10  # the catalogue keeps covering the extension axes

    runs = benchmark.pedantic(
        lambda: scenarios.run_suite(specs), rounds=1, iterations=1
    )
    assert [r.name for r in runs] == [s.name for s in specs]
    for run in runs:
        assert run.result.total_energy > 0, run.name
        assert 0.0 <= run.qos().served_fraction <= 1.0

    # the under-biased predictor must drop demand; the oracle must not
    by_name = {r.name: r for r in runs}
    assert (
        by_name["underestimating-prediction"].qos().unserved_demand
        > by_name["pattern-steady"].qos().unserved_demand
    )

    # the suite aggregates through the unified results layer
    report = SuiteReport.from_runs(runs, baseline="homogeneous-week-global")
    assert report.names == [s.name for s in specs]
    savings = report.savings()
    assert savings["homogeneous-week-global"] == 0.0
    for record, run in zip(report.results, runs):
        assert record.total_energy_j == run.result.total_energy
        assert record.served_fraction == run.qos().served_fraction
    print_comparison("scenario catalogue (1-day workloads)", report.rows())


def _fanout_specs():
    """A workload-heavy suite for the fan-out benchmark.

    Six distinct two-day workloads (seed variants of the paper trace),
    two scheduler variants each: workload construction is a real
    fraction of the suite cost — the thing the chunked scheduler dedupes
    by colocating same-workload scenarios — while the ``fast``-engine
    replays keep each scenario cheap enough for the benchmark to stay in
    seconds.
    """
    from dataclasses import replace

    base = scenarios.get("paper-bml").with_days(2)
    specs = []
    for seed in range(6):
        workload = replace(base.workload, seed=2000 + seed)
        for window in (378, 600):
            specs.append(
                replace(
                    base,
                    name=f"fanout-s{seed}-w{window}",
                    label=None,
                    workload=workload,
                    scheduler=replace(base.scheduler, window=window),
                )
            )
    return specs


def _cold_caches(specs):
    """Cold-start setup (untimed): the fan-out builds from scratch.

    Also the reason this benchmark is defined *after* the catalogue
    sweep: it clears and repopulates the process-level trace cache, and
    must not perturb the ambient state earlier benchmarks measure under.
    """
    scenarios.clear_caches()
    return (specs,), {}


@pytest.mark.benchmark(group="perf-suite")
def test_perf_suite_fanout_chunked(benchmark):
    """PR 5 fan-out: workload-chunked pool tasks.

    Scenarios sharing a workload land on one worker, so every trace is
    built exactly once across the pool.
    """
    specs = _fanout_specs()
    runs = benchmark.pedantic(
        lambda s: scenarios.run_suite(s, jobs=2),
        setup=lambda: _cold_caches(specs),
        rounds=2,
        iterations=1,
    )
    assert [r.name for r in runs] == [s.name for s in specs]
