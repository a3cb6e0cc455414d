"""ScenarioResult distillation and RunStore round trips.

The acceptance contract of the results layer: a save→load cycle must
reproduce every headline metric, the per-day energy series and the spec
dict bit-identically.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.results import (
    HEADLINE_METRICS,
    RunStore,
    ScenarioResult,
    StoreError,
    load_run_dir,
)

pytestmark = pytest.mark.quick


class TestRecord:
    def test_distils_headline_metrics_from_run(self, bml_run):
        rec = bml_run.to_record()
        res = bml_run.result
        assert rec.name == "paper-bml"
        assert rec.label == "Big-Medium-Little"
        assert rec.total_energy_j == res.total_energy
        assert rec.mean_power_w == res.mean_power
        assert rec.n_reconfigurations == res.n_reconfigurations
        assert rec.switch_energy_j == res.switch_energy
        assert rec.switch_time_s == sum(
            r.duration for r in res.reconfigurations
        )
        assert rec.per_day_energy_j == tuple(res.per_day_energy())
        assert rec.total_demand == bml_run.trace_total_demand
        assert rec.served_fraction == bml_run.qos().served_fraction
        assert rec.engine == "fast"
        assert rec.seed == bml_run.spec.workload.seed
        assert rec.days == bml_run.days
        from repro import __version__

        assert rec.version == __version__

    def test_metrics_cover_the_contract(self, bml_run):
        metrics = bml_run.to_record().metrics()
        assert tuple(metrics) == HEADLINE_METRICS
        assert metrics["total_energy_kwh"] == metrics["total_energy_j"] / 3.6e6

    def test_spec_round_trips_to_live_spec(self, bml_run):
        from repro import scenarios

        rec = bml_run.to_record()
        assert rec.load_spec() == scenarios.get("paper-bml")

    def test_summary_row_shape_matches_run(self, bml_run):
        assert bml_run.to_record().summary_row() == bml_run.summary_row()

    def test_rejects_unknown_format(self, bml_run):
        rec = bml_run.to_record()
        data = rec.to_json_dict()
        data["format"] = 99
        with pytest.raises(ValueError, match="format"):
            ScenarioResult.from_parts(data, rec.series_arrays())


class TestRunStore:
    def test_save_load_bit_identical(self, tmp_path, bml_run):
        store = RunStore(tmp_path / "runs")
        rec = bml_run.to_record()
        run_id = store.save(bml_run)
        back = store.load(run_id)
        assert back == rec
        assert back.metrics() == rec.metrics()  # every metric, bit-exact
        assert back.per_day_energy_j == rec.per_day_energy_j
        assert np.array_equal(back.per_day_energy(), rec.per_day_energy())
        assert back.spec == rec.spec
        assert back.created_at == rec.created_at

    def test_save_accepts_records_and_runs(self, tmp_path, bml_run):
        store = RunStore(tmp_path)
        a = store.save(bml_run)
        b = store.save(bml_run.to_record())
        assert [a, b] == ["0001-paper-bml", "0002-paper-bml"]
        assert store.load(a).metrics() == store.load(b).metrics()

    def test_saves_list_the_root_once(
        self, tmp_path, bml_run, variant_run, monkeypatch
    ):
        """A save costs the same however many runs the store holds: only
        an instance's first save lists the root."""
        store = RunStore(tmp_path)
        records = [bml_run.to_record(), variant_run.to_record()]
        listed = []
        iterdir = Path.iterdir

        def counting_iterdir(path):
            listed.append(path)
            return iterdir(path)

        monkeypatch.setattr(Path, "iterdir", counting_iterdir)
        ids = [store.save(records[k % 2]) for k in range(50)]
        assert listed == [store.root]
        monkeypatch.undo()
        assert [s.run_id for s in store.list()] == ids

    def test_second_writer_after_first_save(
        self, tmp_path, bml_run, variant_run
    ):
        """Runs another instance saves after this one's first save are
        not seen: a clash on the whole id rescans, a different name may
        share the sequence number."""
        first, second = RunStore(tmp_path), RunStore(tmp_path)
        assert first.save(bml_run) == "0001-paper-bml"
        assert second.save(bml_run) == "0002-paper-bml"
        assert first.save(bml_run) == "0003-paper-bml"  # clash, rescan
        assert second.save(variant_run) == "0003-bml-window-600"
        assert first.save(bml_run) == "0004-paper-bml"
        assert [s.run_id for s in RunStore(tmp_path).list()] == [
            "0001-paper-bml",
            "0002-paper-bml",
            "0003-bml-window-600",
            "0003-paper-bml",
            "0004-paper-bml",
        ]

    def test_list_and_latest(self, tmp_path, bml_run, variant_run):
        store = RunStore(tmp_path)
        ids = [store.save(bml_run), store.save(variant_run),
               store.save(bml_run)]
        stored = store.list()
        assert [s.run_id for s in stored] == ids
        assert [s.name for s in stored] == [
            "paper-bml", "bml-window-600", "paper-bml",
        ]
        assert stored[0].total_energy_kwh == pytest.approx(
            bml_run.result.total_energy_kwh
        )
        # latest overall is the last save; latest by name filters
        assert store.latest().name == "paper-bml"
        assert store.latest("bml-window-600").name == "bml-window-600"
        assert len(store.load_all()) == 3

    def test_unknown_run_raises_with_known_ids(self, tmp_path, bml_run):
        store = RunStore(tmp_path)
        run_id = store.save(bml_run)
        with pytest.raises(StoreError, match=run_id):
            store.load("0099-nope")
        with pytest.raises(StoreError):
            store.latest("nope")

    def test_empty_store(self, tmp_path):
        store = RunStore(tmp_path / "missing")
        assert store.list() == []
        with pytest.raises(StoreError):
            store.latest()

    def test_load_run_dir_directly(self, tmp_path, bml_run):
        store = RunStore(tmp_path)
        run_id = store.save(bml_run)
        rec = load_run_dir(tmp_path / run_id)
        assert rec == store.load(run_id)
        with pytest.raises(StoreError, match="result.json"):
            load_run_dir(tmp_path)

    def test_on_disk_format_is_json_plus_npz(self, tmp_path, bml_run):
        store = RunStore(tmp_path)
        run_dir = tmp_path / store.save(bml_run)
        data = json.loads((run_dir / "result.json").read_text())
        assert data["name"] == "paper-bml"
        assert data["spec"]["name"] == "paper-bml"
        assert "total_energy_j" in data["metrics"]
        assert data["provenance"]["engine"] == "fast"
        with np.load(run_dir / "series.npz") as npz:
            assert npz["per_day_energy_j"].dtype == np.float64

    def test_record_of_a_deleted_engine_still_loads(self, tmp_path, bml_run):
        """Specs are stored as dicts: a record saved with the deleted
        ``event-segments`` engine loads, only the live spec refuses."""
        from repro.scenarios import ScenarioError

        store = RunStore(tmp_path)
        run_id = store.save(bml_run)
        path = tmp_path / run_id / "result.json"
        data = json.loads(path.read_text())
        data["spec"]["engine"] = "event-segments"
        data["provenance"]["engine"] = "event-segments"
        path.write_text(json.dumps(data))
        back = store.load(run_id)
        assert back.spec["engine"] == "event-segments"
        assert back.metrics() == bml_run.to_record().metrics()
        with pytest.raises(ScenarioError, match="engine"):
            back.load_spec()


class TestPrune:
    """PR 5 retention policy: keep each scenario's newest N runs."""

    def _store(self, tmp_path, bml_run, variant_run):
        store = RunStore(tmp_path)
        ids = [store.save(bml_run) for _ in range(3)]
        ids += [store.save(variant_run)]
        return store, ids

    def test_keeps_newest_per_scenario(self, tmp_path, bml_run, variant_run):
        store, ids = self._store(tmp_path, bml_run, variant_run)
        removed = store.prune(keep_last=1)
        # the two oldest paper-bml runs go, in save order; the single
        # variant run is untouched
        assert removed == ids[:2]
        assert [s.run_id for s in store.list()] == [ids[2], ids[3]]

    def test_survivors_stay_bit_identical(self, tmp_path, bml_run, variant_run):
        store, ids = self._store(tmp_path, bml_run, variant_run)
        before = {rid: store.load(rid) for rid in ids[2:]}
        store.prune(keep_last=1)
        for rid, record in before.items():
            reloaded = store.load(rid)
            assert reloaded.to_json_dict() == record.to_json_dict()
            assert np.array_equal(
                reloaded.per_day_energy_j, record.per_day_energy_j
            )

    def test_keep_more_than_stored_is_a_no_op(
        self, tmp_path, bml_run, variant_run
    ):
        store, ids = self._store(tmp_path, bml_run, variant_run)
        assert store.prune(keep_last=10) == []
        assert [s.run_id for s in store.list()] == ids

    def test_keep_zero_empties_the_store(self, tmp_path, bml_run):
        store = RunStore(tmp_path)
        store.save(bml_run)
        store.save(bml_run)
        removed = store.prune(keep_last=0)
        assert len(removed) == 2
        assert store.list() == []

    def test_negative_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            RunStore(tmp_path).prune(keep_last=-1)

    def test_new_saves_after_prune_keep_sequencing(self, tmp_path, bml_run):
        store = RunStore(tmp_path)
        for _ in range(3):
            store.save(bml_run)
        store.prune(keep_last=1)
        new_id = store.save(bml_run)
        # the survivor had seq 3; the next save continues past it
        assert new_id.startswith("0004-")
        assert [s.seq for s in store.list()] == [3, 4]


class TestQuarantine:
    """PR 7: corrupt run directories are skipped with a report, not fatal."""

    def _corrupt_store(self, tmp_path, bml_run, variant_run):
        store = RunStore(tmp_path)
        ids = [store.save(bml_run), store.save(variant_run), store.save(bml_run)]
        return store, ids

    def test_truncated_result_json_is_quarantined(
        self, tmp_path, bml_run, variant_run
    ):
        store, ids = self._corrupt_store(tmp_path, bml_run, variant_run)
        victim = tmp_path / ids[1] / "result.json"
        victim.write_text(victim.read_text()[:40])  # torn write
        stored = store.list()
        assert [s.run_id for s in stored] == [ids[0], ids[2]]
        skipped = store.skipped()
        assert [q.run_id for q in skipped] == [ids[1]]
        assert "unreadable result.json" in skipped[0].reason

    def test_missing_result_json_is_quarantined(self, tmp_path, bml_run):
        store = RunStore(tmp_path)
        run_id = store.save(bml_run)
        (tmp_path / run_id / "result.json").unlink()
        assert store.list() == []
        assert [q.run_id for q in store.skipped()] == [run_id]
        assert "missing result.json" in store.skipped()[0].reason

    def test_corrupt_series_quarantined_by_load_all(self, tmp_path, bml_run):
        store = RunStore(tmp_path)
        good = store.save(bml_run)
        bad = store.save(bml_run)
        (tmp_path / bad / "series.npz").write_bytes(b"not an npz")
        # list() only reads headers, so both look fine ...
        assert [s.run_id for s in store.list()] == [good, bad]
        # ... but the full load quarantines the one with the bad series
        records = store.load_all()
        assert len(records) == 1
        assert [q.run_id for q in store.skipped()] == [bad]
        assert "unloadable run" in store.skipped()[0].reason

    def test_load_all_strict_raises(self, tmp_path, bml_run):
        store = RunStore(tmp_path)
        bad = store.save(bml_run)
        (tmp_path / bad / "series.npz").write_bytes(b"not an npz")
        with pytest.raises(Exception):
            store.load_all(strict=True)

    def test_prune_never_touches_quarantined_dirs(
        self, tmp_path, bml_run
    ):
        store = RunStore(tmp_path)
        ids = [store.save(bml_run) for _ in range(3)]
        victim = tmp_path / ids[0] / "result.json"
        victim.write_text("{ not json")
        removed = store.prune(keep_last=1)
        # only the readable surplus run goes; the quarantined dir stays
        assert removed == [ids[1]]
        assert (tmp_path / ids[0]).is_dir()
        assert victim.read_text() == "{ not json"

    def test_skipped_resets_per_scan(self, tmp_path, bml_run):
        store = RunStore(tmp_path)
        run_id = store.save(bml_run)
        victim = tmp_path / run_id / "result.json"
        original = victim.read_text()
        victim.write_text(original[:30])
        store.list()
        assert len(store.skipped()) == 1
        victim.write_text(original)  # repaired by hand
        store.list()
        assert store.skipped() == []
