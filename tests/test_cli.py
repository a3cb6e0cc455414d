"""Integration tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestDesign:
    def test_table1_source(self, capsys):
        assert main(["design"]) == 0
        out = capsys.readouterr().out
        assert "paravance" in out and "threshold=529" in out

    def test_illustrative_source(self, capsys):
        assert main(["design", "--source", "illustrative"]) == 0
        out = capsys.readouterr().out
        assert "removed: D" in out


class TestCombination:
    def test_prints_combinations(self, capsys):
        assert main(["combination", "5", "1400"]) == 0
        out = capsys.readouterr().out
        assert "1xraspberry" in out
        assert "1xparavance + 2xchromebook + 1xraspberry" in out

    def test_ideal_method(self, capsys):
        assert main(["combination", "100", "--method", "ideal"]) == 0
        assert "ideal" in capsys.readouterr().out


class TestProfile:
    def test_profile_command(self, capsys):
        assert main(["profile", "--noise", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "raspberry" in out


class TestSimulate:
    def test_two_day_simulation(self, capsys, tmp_path):
        assert (
            main(
                [
                    "simulate", "--days", "2", "--seed", "5",
                    "--csv", str(tmp_path / "out"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "UpperBound Global" in out
        assert "lower bound" in out
        assert (tmp_path / "out" / "fig5_daily_energy.csv").exists()
        assert (tmp_path / "out" / "fig5_summary.csv").exists()


class TestExperiment:
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
    def test_figure_experiments(self, capsys, name):
        assert main(["experiment", name]) == 0
        assert name in capsys.readouterr().out

    def test_fig_csv_dump(self, capsys, tmp_path):
        assert main(["experiment", "fig4", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "fig4.csv").exists()

    def test_table1_experiment(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig5_experiment_short(self, capsys):
        assert main(["experiment", "fig5", "--days", "2"]) == 0
        assert "Big-Medium-Little" in capsys.readouterr().out


class TestSimulatePolicy:
    def test_transition_aware_flag(self, capsys):
        assert main(["simulate", "--days", "1", "--policy", "transition-aware"]) == 0
        assert "Big-Medium-Little" in capsys.readouterr().out


class TestScenario:
    def test_list_shows_registry(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper-bml" in out
        assert "power-capped" in out

    def test_list_filters_by_tag(self, capsys):
        assert main(["scenario", "list", "--tag", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "paper-lower-bound" in out
        assert "power-capped" not in out

    def test_show_emits_round_trippable_json(self, capsys):
        import json

        from repro import scenarios

        assert main(["scenario", "show", "noisy-prediction"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert scenarios.ScenarioSpec.from_dict(data) == scenarios.get(
            "noisy-prediction"
        )

    def test_show_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "show", "nope"])

    def test_run_requires_names_or_all(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run"])

    def test_run_rejects_names_combined_with_all(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "paper-bml", "--all"])

    def test_run_with_days_override_and_csv(self, capsys, tmp_path):
        assert (
            main(
                [
                    "scenario", "run", "pattern-steady", "paper-lower-bound",
                    "--days", "1", "--csv", str(tmp_path / "out"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pattern-steady" in out and "paper-lower-bound" in out
        assert (tmp_path / "out" / "scenario_daily_energy.csv").exists()
        assert (tmp_path / "out" / "scenario_summary.csv").exists()


class TestScenarioStoreCommands:
    def test_run_save_then_report(self, capsys, tmp_path):
        store = tmp_path / "runs"
        assert (
            main(["scenario", "run", "pattern-steady", "--save", str(store)])
            == 0
        )
        out = capsys.readouterr().out
        assert "saved 0001-pattern-steady" in out
        assert (store / "0001-pattern-steady" / "result.json").exists()
        assert (store / "0001-pattern-steady" / "series.npz").exists()
        assert main(["scenario", "report", "--store", str(store)]) == 0
        assert "pattern-steady" in capsys.readouterr().out

    def test_report_csv_dump(self, capsys, tmp_path):
        store = tmp_path / "runs"
        assert (
            main(["scenario", "run", "pattern-steady", "--save", str(store)])
            == 0
        )
        assert (
            main(
                [
                    "scenario", "report", "--store", str(store),
                    "--csv", str(tmp_path / "out"),
                ]
            )
            == 0
        )
        assert (tmp_path / "out" / "report_daily_energy.csv").exists()
        assert (tmp_path / "out" / "report_summary.csv").exists()

    def test_simulate_save_stores_the_four_scenarios(self, capsys, tmp_path):
        from repro.results import RunStore

        store = tmp_path / "runs"
        assert (
            main(
                ["simulate", "--days", "1", "--seed", "5", "--save", str(store)]
            )
            == 0
        )
        assert "saved" in capsys.readouterr().out
        assert [s.name for s in RunStore(store).list()] == [
            "paper-upper-global",
            "paper-upper-perday",
            "paper-bml",
            "paper-lower-bound",
        ]

    def test_diff_json_and_csv_export(self, capsys, tmp_path):
        import json

        store = tmp_path / "runs"
        for _ in range(2):
            assert (
                main(
                    ["scenario", "run", "pattern-steady", "--save", str(store)]
                )
                == 0
            )
        capsys.readouterr()
        json_path = tmp_path / "artifacts" / "diff.json"
        csv_path = tmp_path / "artifacts" / "diff.csv"
        assert (
            main(
                [
                    "scenario", "diff",
                    "0001-pattern-steady", "0002-pattern-steady",
                    "--store", str(store),
                    "--json", str(json_path), "--csv", str(csv_path),
                ]
            )
            == 0
        )
        payload = json.loads(json_path.read_text())
        assert payload["identical"] is True
        assert payload["a"]["name"] == "pattern-steady"
        assert {m["metric"] for m in payload["metrics"]} >= {
            "total_energy_j", "served_fraction",
        }
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",")[:3] == ["kind", "name", "a"]

    def test_diff_json_to_stdout(self, capsys, tmp_path):
        import json

        store = tmp_path / "runs"
        assert (
            main(["scenario", "run", "pattern-steady", "--save", str(store)])
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "scenario", "diff",
                    "0001-pattern-steady", "0001-pattern-steady",
                    "--store", str(store), "--json", "-",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is True

    def test_report_prune_applies_retention(self, capsys, tmp_path):
        from repro.results import RunStore

        store = tmp_path / "runs"
        for _ in range(3):
            assert (
                main(
                    ["scenario", "run", "pattern-steady", "--save", str(store)]
                )
                == 0
            )
        capsys.readouterr()
        assert (
            main(
                [
                    "scenario", "report", "--store", str(store), "--prune", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pruned 2 run(s)" in out
        assert [s.run_id for s in RunStore(store).list()] == [
            "0003-pattern-steady"
        ]

    def test_report_prune_rejects_zero(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "scenario", "report",
                    "--store", str(tmp_path), "--prune", "0",
                ]
            )


class TestTrace:
    def test_npz_output(self, capsys, tmp_path):
        out = tmp_path / "t.npz"
        assert main(["trace", str(out), "--days", "1", "--seed", "2"]) == 0
        assert out.exists()
        from repro.workload import LoadTrace

        trace = LoadTrace.from_npz(out)
        assert trace.n_days == 1

    def test_csv_output(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["trace", str(out), "--days", "1", "--peak", "800"]) == 0
        from repro.workload import LoadTrace

        trace = LoadTrace.from_csv(out)
        assert trace.peak == pytest.approx(800.0, rel=1e-6)

    def test_wc98_binary_output(self, capsys, tmp_path):
        out = tmp_path / "t.npz"
        assert main(
            ["trace", str(out), "--days", "1", "--peak", "40", "--wc98-binary"]
        ) == 0
        logs = list(tmp_path.glob("t_day*.log.gz"))
        assert len(logs) == 1
        from repro.workload import LoadTrace, read_trace

        # One archive record per rounded request: the round trip is exact.
        synthesised = LoadTrace.from_npz(out).values
        assert read_trace(logs).total_demand == np.round(synthesised).sum()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", str(tmp_path / "t.parquet"), "--days", "1"])


@pytest.mark.quick
class TestEngineFlag:
    """PR 6: the two-phase engine and its stats exposed from the CLI."""

    def test_simulate_engine_and_stats(self, capsys):
        assert (
            main(
                [
                    "simulate", "--days", "1", "--engine", "twophase",
                    "--stats",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "replay statistics" in out
        assert "twophase" in out
        assert "serving_sets" in out
        assert "templated" in out

    def test_simulate_stats_without_engine_notes_fast_path(self, capsys):
        assert main(["simulate", "--days", "1", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "fast plan executor" in out

    def test_simulate_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--days", "1", "--engine", "warp"])

    def test_scenario_run_engine_and_stats(self, capsys):
        assert (
            main(
                [
                    "scenario", "run", "paper-bml", "paper-lower-bound",
                    "--days", "1", "--engine", "twophase", "--stats",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # the baseline keeps its engine, with a notice
        assert "unchanged: paper-lower-bound" in out
        assert "replay statistics" in out
        assert "segments" in out

    def test_engine_leaves_the_transition_aware_policy_on_its_engine(
        self, capsys
    ):
        """The event replay walks the BML rule only, so ``--engine``
        keeps transition-aware scenarios on the plan executor."""
        assert (
            main(
                [
                    "scenario", "run", "transition-aware-week", "--days", "1",
                    "--engine", "twophase",
                ]
            )
            == 0
        )
        assert "unchanged: transition-aware-week" in capsys.readouterr().out

    def test_simulate_rejects_an_engine_for_transition_aware(self):
        with pytest.raises(SystemExit, match="bml policy only"):
            main(
                [
                    "simulate", "--days", "1", "--policy", "transition-aware",
                    "--engine", "twophase",
                ]
            )


class TestScenarioRunFaultTolerance:
    """PR 7: exit codes 0/2/1 and the failure/resume surfaces."""

    def _persistent(self, name):
        from repro import faults

        return faults.FaultPlan(
            faults=(
                faults.Fault("spec-error", name, fail_attempts=faults.ALWAYS),
            )
        )

    def test_keep_going_exits_2_with_failures_on_stderr(self, capsys):
        from repro import faults

        with faults.injected(self._persistent("pattern-steady")):
            code = main(
                [
                    "scenario", "run", "pattern-steady", "pattern-flashcrowd",
                    "--days", "1", "--keep-going",
                ]
            )
        assert code == 2
        captured = capsys.readouterr()
        assert "pattern-flashcrowd" in captured.out  # survivor reported
        assert "failures (1)" in captured.err
        assert "InjectedFault" in captured.err
        assert "pattern-steady" in captured.err

    def test_fatal_failure_exits_1(self, capsys):
        from repro import faults

        with faults.injected(self._persistent("pattern-steady")):
            code = main(
                ["scenario", "run", "pattern-steady", "--days", "1"]
            )
        assert code == 1
        captured = capsys.readouterr()
        assert "scenario run failed: InjectedFault" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "run", "pattern-steady", "--days", "1"],
            ["sweep", "run", "grid-smoke", "--limit", "2"],
        ],
        ids=["scenario", "sweep"],
    )
    def test_interrupted_suite_exits_130(self, capsys, monkeypatch, argv):
        import signal

        from repro import scenarios

        def interrupted(specs, **kwargs):
            raise scenarios.SuiteInterrupted(signal.SIGTERM, 0, len(specs))

        monkeypatch.setattr(scenarios, "run_suite", interrupted)
        assert main(argv) == 130
        err = capsys.readouterr().err
        assert f"{argv[0]} run: suite interrupted by SIGTERM" in err

    def test_all_clean_exits_0(self, capsys):
        assert (
            main(["scenario", "run", "pattern-steady", "--days", "1"]) == 0
        )
        captured = capsys.readouterr()
        assert "failures" not in captured.err

    def test_retries_recover_a_transient_failure(self, capsys):
        from repro import faults

        plan = faults.FaultPlan(
            faults=(
                faults.Fault("spec-error", "pattern-steady", fail_attempts=1),
            )
        )
        with faults.injected(plan):
            code = main(
                [
                    "scenario", "run", "pattern-steady",
                    "--days", "1", "--retries", "2",
                ]
            )
        assert code == 0
        assert "pattern-steady" in capsys.readouterr().out

    def test_invalid_retries_rejected(self):
        with pytest.raises(SystemExit, match="max_attempts"):
            main(
                [
                    "scenario", "run", "pattern-steady",
                    "--days", "1", "--retries", "0",
                ]
            )

    def test_resume_requires_save(self):
        with pytest.raises(SystemExit, match="--resume requires --save"):
            main(
                ["scenario", "run", "pattern-steady", "--days", "1", "--resume"]
            )

    def test_resume_skips_stored_and_reruns_failures(self, capsys, tmp_path):
        from repro import faults

        store = tmp_path / "runs"
        with faults.injected(self._persistent("pattern-flashcrowd")):
            code = main(
                [
                    "scenario", "run", "pattern-steady", "pattern-flashcrowd",
                    "--days", "1", "--keep-going", "--save", str(store),
                ]
            )
        assert code == 2
        first = capsys.readouterr()
        assert "saved 0001-pattern-steady" in first.out
        assert (store / "0001-pattern-steady" / "result.json").exists()
        assert not (store / "0002-pattern-flashcrowd").exists()

        # fault cleared: resume re-runs only the failed scenario
        code = main(
            [
                "scenario", "run", "pattern-steady", "pattern-flashcrowd",
                "--days", "1", "--save", str(store), "--resume",
            ]
        )
        assert code == 0
        second = capsys.readouterr()
        assert "resumed from store (skipped): pattern-steady" in second.out
        assert "saved 0002-pattern-flashcrowd" in second.out
        assert "saved 0001-pattern-steady" not in second.out


class TestSweepCLI:
    @pytest.fixture()
    def tiny_sweep(self):
        """A registered 2x2 grid over the cheap pattern workload.

        Registration is undone afterwards: the sweep registry is
        process-global, and leaving a test grid behind would change
        ``scenarios.sweeps()`` for later tests (the golden catalogue
        pin in particular).
        """
        from repro import scenarios
        from repro.scenarios import registry

        sweep = scenarios.SweepSpec(
            name="cli-test-grid",
            base="pattern-steady",
            axes=(
                ("policy", ("bml", "upper-global")),
                ("seed", (1, 2)),
            ),
        )
        scenarios.register_sweep(sweep, replace=True)
        yield sweep
        registry._SWEEPS.pop("cli-test-grid", None)

    def test_list_shows_registered_sweeps(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        assert "grid-smoke" in out
        assert "fleet-grid" in out
        assert "sweep registry" in out

    def test_show_emits_round_trippable_json(self, capsys):
        import json

        from repro.scenarios import SweepSpec

        assert main(["sweep", "show", "grid-smoke"]) == 0
        payload = json.loads(capsys.readouterr().out)
        clone = SweepSpec.from_dict(payload)
        assert clone.name == "grid-smoke"
        assert clone.size == 8

    def test_show_unknown_sweep_rejected(self):
        with pytest.raises(SystemExit, match="unknown sweep"):
            main(["sweep", "show", "no-such-grid"])

    def test_expand_prints_the_grid(self, capsys, tiny_sweep):
        assert main(["sweep", "expand", "cli-test-grid"]) == 0
        out = capsys.readouterr().out
        assert "4/4 points" in out
        assert "cli-test-grid+policy=bml+seed=1" in out
        assert "cli-test-grid+policy=upper-global+seed=2" in out

    def test_expand_json_is_from_dict_compatible(self, capsys, tiny_sweep):
        import json

        from repro.scenarios import ScenarioSpec

        assert main(
            ["sweep", "expand", "cli-test-grid", "--limit", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        specs = [ScenarioSpec.from_dict(d) for d in payload]
        assert specs[0].name == "cli-test-grid+policy=bml+seed=1"

    def test_expand_rejects_bad_limit(self, tiny_sweep):
        with pytest.raises(SystemExit, match="--limit"):
            main(["sweep", "expand", "cli-test-grid", "--limit", "0"])

    def test_run_saves_and_facets(self, capsys, tmp_path, tiny_sweep):
        store = tmp_path / "runs"
        assert (
            main(
                [
                    "sweep", "run", "cli-test-grid",
                    "--save", str(store), "--facet", "policy",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sweep cli-test-grid" in out
        assert "facet: policy" in out
        assert "saved 4 run(s)" in out
        stored = sorted(p.name for p in store.iterdir())
        assert len(stored) == 4
        assert any("cli-test-grid+policy=bml+seed=1" in s for s in stored)

    def test_run_keep_going_exits_2_else_fatal_exits_1(
        self, capsys, tiny_sweep
    ):
        from repro import faults

        poisoned = "cli-test-grid+policy=bml+seed=1"
        plan = faults.FaultPlan(
            faults=(
                faults.Fault(
                    "spec-error", poisoned, fail_attempts=faults.ALWAYS
                ),
            )
        )
        with faults.injected(plan):
            code = main(["sweep", "run", "cli-test-grid", "--keep-going"])
            assert code == 2
            captured = capsys.readouterr()
            assert "cli-test-grid+policy=bml+seed=2" in captured.out
            assert "failures (1)" in captured.err
            assert "InjectedFault" in captured.err
            assert poisoned in captured.err
            assert main(["sweep", "run", "cli-test-grid"]) == 1
        assert "sweep run failed: InjectedFault" in capsys.readouterr().err

    def test_run_resume_requires_save(self, tiny_sweep):
        with pytest.raises(SystemExit, match="--resume requires"):
            main(["sweep", "run", "cli-test-grid", "--resume"])


class TestFederatedReport:
    def test_multi_store_report_federates(self, capsys, tmp_path):
        store_a = tmp_path / "a"
        store_b = tmp_path / "b"
        assert (
            main(["scenario", "run", "pattern-steady", "--days", "1",
                  "--save", str(store_a)]) == 0
        )
        assert (
            main(["scenario", "run", "pattern-flashcrowd", "--days", "1",
                  "--save", str(store_b)]) == 0
        )
        capsys.readouterr()
        assert (
            main(["scenario", "report",
                  "--store", str(store_a), "--store", str(store_b)]) == 0
        )
        out = capsys.readouterr().out
        assert "pattern-steady" in out
        assert "pattern-flashcrowd" in out
        assert str(store_a) in out and str(store_b) in out

    def test_multi_store_prune_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="prune"):
            main(
                ["scenario", "report", "--store", str(tmp_path / "a"),
                 "--store", str(tmp_path / "b"), "--prune", "1"]
            )

    def test_missing_name_reports_all_roots(self, capsys, tmp_path):
        store_a = tmp_path / "a"
        store_b = tmp_path / "b"
        assert (
            main(["scenario", "run", "pattern-steady", "--days", "1",
                  "--save", str(store_a)]) == 0
        )
        assert (
            main(["scenario", "run", "pattern-steady", "--days", "1",
                  "--save", str(store_b)]) == 0
        )
        capsys.readouterr()
        with pytest.raises(SystemExit, match="no stored run for"):
            main(["scenario", "report", "no-such-scenario",
                  "--store", str(store_a), "--store", str(store_b)])
