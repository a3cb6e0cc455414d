"""Unit tests for the cross-PR benchmark regression checker."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import check_regression  # noqa: E402
import run_benchmarks  # noqa: E402


def _artifact(path: Path, mins: dict, cpu: str = None) -> None:
    payload = {
        "benchmarks": [
            {"fullname": name, "stats": {"min": value}}
            for name, value in mins.items()
        ]
    }
    if cpu is not None:
        payload["machine_info"] = {"cpu": {"brand_raw": cpu}}
    path.write_text(json.dumps(payload))


class TestCompare:
    def test_flags_only_shared_regressions(self):
        lines, failures = check_regression.compare(
            current={"a": 1.0, "b": 0.5, "new": 9.0},
            previous={"a": 1.0, "b": 0.1, "gone": 1.0},
            threshold=1.3,
        )
        assert failures == ["b"]
        assert any("new benchmark" in line for line in lines)
        assert any("removed" in line for line in lines)

    def test_speedups_and_small_slowdowns_pass(self):
        _, failures = check_regression.compare(
            current={"a": 0.2, "b": 1.2},
            previous={"a": 1.0, "b": 1.0},
            threshold=1.3,
        )
        assert failures == []


class TestMain:
    def test_exit_codes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        prev, cur = tmp_path / "BENCH_PR1.json", tmp_path / "BENCH_PR2.json"
        _artifact(prev, {"bench::x": 1.0, "bench::y": 1.0})
        _artifact(cur, {"bench::x": 1.0, "bench::y": 2.0})
        assert check_regression.main(["--no-retry"]) == 1  # y regressed 2x
        assert check_regression.main(["--threshold", "2.5"]) == 0
        _artifact(cur, {"bench::x": 1.0, "bench::y": 1.1})
        assert check_regression.main([]) == 0

    def test_new_benchmarks_never_fail(self, tmp_path, monkeypatch, capsys):
        """Benchmarks absent from the older artifact are graced, not failed.

        The PR 6 case: BENCH_PR6 adds the year-scale replay benchmark,
        which has no baseline in BENCH_PR5 — however slow it is, only
        *shared* benchmarks can regress.
        """
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        _artifact(tmp_path / "BENCH_PR5.json", {"bench::x": 1.0})
        _artifact(
            tmp_path / "BENCH_PR6.json",
            {"bench::x": 1.0, "bench::year": 900.0},
        )
        assert check_regression.main(["--no-retry"]) == 0
        out = capsys.readouterr().out
        assert "bench::year: new benchmark" in out
        assert "1 new (no baseline, graced)" in out

    def test_no_previous_artifact_is_ok(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        _artifact(tmp_path / "BENCH_PR1.json", {"bench::x": 1.0})
        assert check_regression.main([]) == 0

    def test_finds_numbered_artifacts_in_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        for k in (2, 10, 1):
            _artifact(tmp_path / f"BENCH_PR{k}.json", {"bench::x": float(k)})
        found = check_regression.find_artifacts(tmp_path)
        assert [k for k, _ in found] == [1, 2, 10]
        # newest (PR10) compared against PR2, not PR1
        assert check_regression.main(["--no-retry"]) == 1  # 10/2 slowdown


FAST_CPU = "Intel(R) Xeon(R) Processor @ 2.70GHz"
SLOW_CPU = "Intel(R) Xeon(R) Processor @ 2.10GHz"


class TestSameCpuBaseline:
    """Timings recorded on different CPUs are not compared as one."""

    def test_artifact_cpu_reads_the_brand(self, tmp_path):
        path = tmp_path / "BENCH_PR1.json"
        _artifact(path, {"bench::x": 1.0}, cpu=SLOW_CPU)
        assert check_regression.artifact_cpu(path) == SLOW_CPU
        _artifact(path, {"bench::x": 1.0})
        assert check_regression.artifact_cpu(path) is None
        path.write_text("[1, 2]")
        assert check_regression.artifact_cpu(path) is None
        assert check_regression.artifact_cpu(tmp_path / "missing.json") is None

    def test_default_baseline_is_newest_on_the_same_cpu(
        self, tmp_path, monkeypatch, capsys
    ):
        """PR3 skips PR2, recorded elsewhere, and baselines on PR1."""
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        _artifact(tmp_path / "BENCH_PR1.json", {"bench::x": 1.0}, cpu=SLOW_CPU)
        _artifact(tmp_path / "BENCH_PR2.json", {"bench::x": 0.5}, cpu=FAST_CPU)
        _artifact(tmp_path / "BENCH_PR3.json", {"bench::x": 1.1}, cpu=SLOW_CPU)
        assert check_regression.main(["--no-retry"]) == 0
        assert "BENCH_PR3.json against BENCH_PR1.json" in capsys.readouterr().out

    def test_no_older_artifact_on_the_cpu_passes(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        _artifact(tmp_path / "BENCH_PR5.json", {"bench::x": 1.0}, cpu=FAST_CPU)
        _artifact(tmp_path / "BENCH_PR8.json", {"bench::x": 2.0}, cpu=SLOW_CPU)
        assert check_regression.main(["--no-retry"]) == 0
        out = capsys.readouterr().out
        assert f"no older artifact was recorded on its CPU ({SLOW_CPU})" in out
        assert "comparing" not in out

    def test_explicit_previous_from_another_cpu_warns(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        prev, cur = tmp_path / "BENCH_PR5.json", tmp_path / "BENCH_PR8.json"
        _artifact(prev, {"bench::x": 1.0}, cpu=FAST_CPU)
        _artifact(cur, {"bench::x": 2.0}, cpu=SLOW_CPU)
        argv = ["--no-retry", "--current", str(cur), "--previous", str(prev)]
        assert check_regression.main(argv) == 1  # still compared
        out = capsys.readouterr().out
        assert "warning:" in out and FAST_CPU in out and SLOW_CPU in out

    def test_explicit_previous_from_the_same_cpu_does_not_warn(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        prev, cur = tmp_path / "BENCH_PR8.json", tmp_path / "BENCH_PR9.json"
        _artifact(prev, {"bench::x": 1.0}, cpu=SLOW_CPU)
        _artifact(cur, {"bench::x": 1.0}, cpu=SLOW_CPU)
        argv = ["--current", str(cur), "--previous", str(prev)]
        assert check_regression.main(argv) == 0
        assert "warning" not in capsys.readouterr().out


class TestBestOfTwoRetry:
    """Flagged benchmarks are re-measured once before the check fails."""

    def _artifacts(self, tmp_path):
        _artifact(tmp_path / "BENCH_PR1.json", {"bench::x": 1.0, "bench::y": 1.0})
        _artifact(tmp_path / "BENCH_PR2.json", {"bench::x": 1.0, "bench::y": 2.0})

    def test_noise_clears_on_remeasure(self, tmp_path, monkeypatch, capsys):
        self._artifacts(tmp_path)
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        reruns = []

        def fake_rerun(names):
            reruns.append(list(names))
            return {"bench::y": 1.05}  # the fresh round is fine -> noise

        assert check_regression.main([], rerun=fake_rerun) == 0
        assert reruns == [["bench::y"]]  # only the flagged one re-measured
        out = capsys.readouterr().out
        assert "best-of-2" in out and "OK" in out

    def test_real_regression_still_fails(self, tmp_path, monkeypatch):
        self._artifacts(tmp_path)
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        assert (
            check_regression.main([], rerun=lambda names: {"bench::y": 1.9})
            == 1
        )

    def test_failed_rerun_keeps_recorded_timing(self, tmp_path, monkeypatch):
        self._artifacts(tmp_path)
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        # rerun machinery broke (no entries): the recorded min stands
        assert check_regression.main([], rerun=lambda names: {}) == 1

    def test_best_of_two_never_worsens(self, tmp_path, monkeypatch):
        self._artifacts(tmp_path)
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        # fresh round slower than recorded: min() keeps the recorded 2.0,
        # still a regression
        assert (
            check_regression.main([], rerun=lambda names: {"bench::y": 5.0})
            == 1
        )

    def test_no_retry_flag_skips_remeasure(self, tmp_path, monkeypatch):
        self._artifacts(tmp_path)
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)

        def explode(names):  # pragma: no cover - must not run
            raise AssertionError("--no-retry must not re-measure")

        assert check_regression.main(["--no-retry"], rerun=explode) == 1

    def test_historical_artifact_is_not_whitewashed(
        self, tmp_path, monkeypatch, capsys
    ):
        """Auditing an old recording must not re-measure today's code."""
        self._artifacts(tmp_path)
        cur = tmp_path / "BENCH_PR2.json"
        payload = json.loads(cur.read_text())
        payload["commit_info"] = {"id": "0ld5ha"}
        cur.write_text(json.dumps(payload))
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        monkeypatch.setattr(
            check_regression, "head_commit", lambda root=None: "n3wsha"
        )

        def explode(names):  # pragma: no cover - must not run
            raise AssertionError("historical audit must not re-measure")

        assert check_regression.main([], rerun=explode) == 1
        assert "skipping best-of-2" in capsys.readouterr().out

    def test_matching_commit_still_retries(self, tmp_path, monkeypatch):
        self._artifacts(tmp_path)
        cur = tmp_path / "BENCH_PR2.json"
        payload = json.loads(cur.read_text())
        payload["commit_info"] = {"id": "5amesha"}
        cur.write_text(json.dumps(payload))
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        monkeypatch.setattr(
            check_regression, "head_commit", lambda root=None: "5amesha"
        )
        assert (
            check_regression.main([], rerun=lambda names: {"bench::y": 1.0})
            == 0
        )


class TestNextArtifactName:
    def test_infers_highest_plus_one(self, tmp_path):
        for k in (1, 2, 10):
            _artifact(tmp_path / f"BENCH_PR{k}.json", {"bench::x": 1.0})
        (tmp_path / "BENCH_PERF_ONLY.json").write_text("{}")  # never counted
        assert run_benchmarks.next_artifact_name(tmp_path) == "BENCH_PR11.json"
        assert run_benchmarks.highest_recorded(tmp_path) == 10

    def test_empty_directory_starts_at_one(self, tmp_path):
        assert run_benchmarks.next_artifact_name(tmp_path) == "BENCH_PR1.json"
        assert run_benchmarks.highest_recorded(tmp_path) is None


def _stamped(path: Path, commit: str) -> None:
    path.write_text(
        json.dumps({"benchmarks": [], "commit_info": {"id": commit}})
    )


class TestSamePrRerunGuard:
    """Rerunning on the recorded HEAD must not mint the next PR artifact."""

    def test_recorded_head_commit_reads_highest_artifact(self, tmp_path):
        _stamped(tmp_path / "BENCH_PR1.json", "aaa")
        _stamped(tmp_path / "BENCH_PR3.json", "ccc")
        assert run_benchmarks.recorded_head_commit(tmp_path) == "ccc"

    def test_missing_or_malformed_artifacts_read_as_none(self, tmp_path):
        assert run_benchmarks.recorded_head_commit(tmp_path) is None
        (tmp_path / "BENCH_PR1.json").write_text("{not json")
        assert run_benchmarks.recorded_head_commit(tmp_path) is None
        _artifact(tmp_path / "BENCH_PR2.json", {"bench::x": 1.0})  # no commit_info
        assert run_benchmarks.recorded_head_commit(tmp_path) is None

    def test_same_commit_rerun_is_refused(self, tmp_path, monkeypatch, capsys):
        _stamped(tmp_path / "BENCH_PR2.json", "deadbeef")
        monkeypatch.setattr(run_benchmarks, "ROOT", tmp_path)
        monkeypatch.setattr(
            run_benchmarks, "current_commit", lambda root=None: "deadbeef"
        )
        with pytest.raises(SystemExit):
            run_benchmarks.main([])
        err = capsys.readouterr().err
        assert "--pr 2" in err and "BENCH_PR3.json" in err

    def test_new_commit_infers_next_artifact(self, tmp_path, monkeypatch):
        _stamped(tmp_path / "BENCH_PR2.json", "deadbeef")
        monkeypatch.setattr(run_benchmarks, "ROOT", tmp_path)
        monkeypatch.setattr(
            run_benchmarks, "current_commit", lambda root=None: "0ddc0ffee"
        )
        calls = []
        monkeypatch.setattr(
            run_benchmarks, "_run", lambda args, env: (calls.append(args), 0)[1]
        )
        assert run_benchmarks.main([]) == 0
        assert any("BENCH_PR3.json" in arg for call in calls for arg in call)

    def test_explicit_pr_rerecords_same_commit(self, tmp_path, monkeypatch):
        _stamped(tmp_path / "BENCH_PR2.json", "deadbeef")
        monkeypatch.setattr(run_benchmarks, "ROOT", tmp_path)
        monkeypatch.setattr(
            run_benchmarks, "current_commit", lambda root=None: "deadbeef"
        )
        calls = []
        monkeypatch.setattr(
            run_benchmarks, "_run", lambda args, env: (calls.append(args), 0)[1]
        )
        assert run_benchmarks.main(["--pr", "2"]) == 0
        assert any("BENCH_PR2.json" in arg for call in calls for arg in call)

    def test_outside_git_checkout_never_blocks(self, tmp_path, monkeypatch):
        _stamped(tmp_path / "BENCH_PR2.json", "deadbeef")
        monkeypatch.setattr(run_benchmarks, "ROOT", tmp_path)
        monkeypatch.setattr(
            run_benchmarks, "current_commit", lambda root=None: None
        )
        calls = []
        monkeypatch.setattr(
            run_benchmarks, "_run", lambda args, env: (calls.append(args), 0)[1]
        )
        assert run_benchmarks.main([]) == 0
        assert any("BENCH_PR3.json" in arg for call in calls for arg in call)


class TestTolerantLoading:
    """PR 7: partial or damaged artifacts degrade with warnings, never crash."""

    def test_missing_file_warns_and_reads_empty(self, tmp_path, capsys):
        mins = check_regression.load_mins(tmp_path / "nope.json")
        assert mins == {}
        assert "unreadable artifact" in capsys.readouterr().out

    def test_malformed_json_warns_and_reads_empty(self, tmp_path, capsys):
        path = tmp_path / "BENCH_PR9.json"
        path.write_text("{ torn write")
        assert check_regression.load_mins(path) == {}
        assert "unreadable artifact" in capsys.readouterr().out

    def test_missing_benchmark_list_warns(self, tmp_path, capsys):
        path = tmp_path / "BENCH_PR9.json"
        path.write_text(json.dumps({"machine_info": {}}))
        assert check_regression.load_mins(path) == {}
        assert "no benchmark list" in capsys.readouterr().out

    def test_partial_entries_are_skipped_not_fatal(self, tmp_path, capsys):
        path = tmp_path / "BENCH_PR9.json"
        path.write_text(
            json.dumps(
                {
                    "benchmarks": [
                        {"fullname": "bench::ok", "stats": {"min": 0.5}},
                        {"fullname": "bench::no-stats"},
                        "not-a-dict",
                        {"fullname": "bench::bad", "stats": {"min": "oops"}},
                    ]
                }
            )
        )
        mins = check_regression.load_mins(path)
        assert mins == {"bench::ok": 0.5}
        assert "non-numeric min" in capsys.readouterr().out

    def test_unreadable_current_artifact_passes_with_warning(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        _artifact(tmp_path / "BENCH_PR1.json", {"bench::x": 1.0})
        (tmp_path / "BENCH_PR2.json").write_text("garbage")
        assert check_regression.main([]) == 0
        out = capsys.readouterr().out
        assert "unreadable artifact" in out
        assert "missing from BENCH_PR2.json" in out


class TestMissingGroups:
    def test_lost_group_is_named(self):
        groups = check_regression.missing_groups(
            current={"a.py::x": 1.0},
            previous={"a.py::x": 1.0, "b.py::y": 1.0, "b.py::z": 2.0},
        )
        assert groups == ["b.py"]

    def test_no_warning_when_groups_survive(self):
        assert (
            check_regression.missing_groups(
                current={"a.py::x": 1.0, "b.py::y": 5.0},
                previous={"a.py::x": 1.0, "b.py::z": 2.0},
            )
            == []
        )

    def test_main_warns_about_lost_group(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(check_regression, "ROOT", tmp_path)
        _artifact(
            tmp_path / "BENCH_PR1.json",
            {"bench_a.py::x": 1.0, "bench_b.py::y": 1.0},
        )
        _artifact(tmp_path / "BENCH_PR2.json", {"bench_a.py::x": 1.0})
        assert check_regression.main([]) == 0
        out = capsys.readouterr().out
        assert "benchmark group bench_b.py is missing from BENCH_PR2.json" in out
        assert "not compared" in out
