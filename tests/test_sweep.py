"""Parametric sweeps: grid declaration, expansion, registry, suite run.

A :class:`~repro.scenarios.sweep.SweepSpec` must mint the same spec
list everywhere (names are a pure function of the declaration — the
federated-store merge depends on it), apply every axis to the right
layer (scheduler / workload / scenario), reject malformed grids with
named errors, and JSON round-trip like every other spec in the repo.
"""

import json
from dataclasses import replace

import pytest

from repro import scenarios
from repro.scenarios import ScenarioError, SweepSpec
from repro.scenarios.spec import FIG5_DAYS_ENV


def smoke_sweep(**overrides):
    kwargs = dict(
        name="t-grid",
        base="paper-bml",
        axes=(
            ("policy", ("bml", "upper-global")),
            ("peak_rate", (2000.0, 3000.0)),
            ("days", (1,)),
        ),
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestExpansion:
    def test_size_and_order_are_the_cross_product(self):
        sweep = smoke_sweep()
        specs = sweep.expand()
        assert len(specs) == sweep.size == 4
        # itertools.product order: last axis fastest
        assert [s.name for s in specs] == [
            "t-grid+policy=bml+peak_rate=2000+days=1",
            "t-grid+policy=bml+peak_rate=3000+days=1",
            "t-grid+policy=upper-global+peak_rate=2000+days=1",
            "t-grid+policy=upper-global+peak_rate=3000+days=1",
        ]
        assert sweep.point_names() == [s.name for s in specs]

    def test_expansion_is_deterministic(self):
        a = smoke_sweep().expand()
        b = smoke_sweep().expand()
        assert [s.spec_key() for s in a] == [s.spec_key() for s in b]

    def test_axes_land_on_the_right_layer(self):
        spec = smoke_sweep().expand()[0]
        assert spec.scheduler.policy == "bml"
        assert spec.workload.peak_rate == 2000.0
        assert spec.workload.days == 1
        assert "sweep" in spec.tags
        assert "sweep:t-grid" in spec.tags

    def test_minted_specs_carry_their_grid_coordinates(self):
        spec = smoke_sweep().expand()[0]
        coords = dict(spec.axes)
        assert coords == {
            "policy": "bml",
            "peak_rate": 2000.0,
            "days": 1,
        }

    def test_days_axis_pins_against_the_env_override(self, monkeypatch):
        monkeypatch.setenv(FIG5_DAYS_ENV, "5")
        spec = smoke_sweep().expand()[0]
        assert spec.workload.days == 1  # pinned, not overridden

    def test_labelled_inventory_axis(self):
        sweep = SweepSpec(
            name="inv",
            base="paper-bml",
            axes=(
                (
                    "inventory",
                    (
                        ("full", None),
                        ("tiny", {"chromebook": 2, "paravance": 1}),
                    ),
                ),
            ),
        )
        full, tiny = sweep.expand()
        assert full.name == "inv+inventory=full"
        assert full.scheduler.inventory is None
        assert tiny.name == "inv+inventory=tiny"
        assert dict(tiny.scheduler.inventory) == {
            "chromebook": 2,
            "paravance": 1,
        }
        assert dict(tiny.axes)["inventory"] == "tiny"

    def test_spec_key_round_trips_through_json(self):
        from repro.scenarios.spec import ScenarioSpec

        for spec in smoke_sweep().expand():
            clone = ScenarioSpec.from_dict(
                json.loads(json.dumps(spec.to_dict()))
            )
            assert clone == spec
            assert clone.spec_key() == spec.spec_key()


class TestValidation:
    def test_unknown_axis_is_rejected(self):
        with pytest.raises(ScenarioError, match="unknown sweep axis"):
            smoke_sweep(axes=(("warp_factor", (1, 2)),))

    def test_duplicate_axis_is_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate sweep axis"):
            smoke_sweep(axes=(("seed", (1,)), ("seed", (2,))))

    def test_empty_axis_is_rejected(self):
        with pytest.raises(ScenarioError, match="has no values"):
            smoke_sweep(axes=(("seed", ()),))

    def test_colliding_name_tokens_are_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate name tokens"):
            smoke_sweep(axes=(("pattern", ("a b", "a-b")),))

    def test_structured_scalar_value_is_rejected(self):
        with pytest.raises(ScenarioError, match="not a JSON scalar"):
            smoke_sweep(axes=(("seed", ({"nested": 1},)),))

    def test_bad_sweep_name_is_rejected(self):
        with pytest.raises(ScenarioError, match="sweep name"):
            smoke_sweep(name="has spaces")

    def test_invalid_grid_point_names_the_point(self):
        sweep = smoke_sweep(axes=(("days", (1, 0)),))
        with pytest.raises(
            ScenarioError, match="invalid grid point 't-grid\\+days=0'"
        ):
            sweep.expand()

    def test_transition_aware_on_an_event_engine_names_the_point(self):
        sweep = smoke_sweep(
            axes=(
                ("policy", ("bml", "transition-aware")),
                ("engine", ("event",)),
            )
        )
        with pytest.raises(
            ScenarioError,
            match="invalid grid point "
            "'t-grid\\+policy=transition-aware\\+engine=event'",
        ):
            sweep.expand()


class TestRoundTrip:
    def test_to_from_dict_round_trips(self):
        sweep = SweepSpec(
            name="rt",
            description="round trip",
            base="paper-bml",
            axes=(
                ("policy", ("bml",)),
                ("inventory", (("tiny", {"raspberry": 5}),)),
                ("params", (("gentle", {"crowds_per_day": 1}),)),
            ),
            tags=("x",),
        )
        clone = SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert clone == sweep
        assert clone.sweep_key() == sweep.sweep_key()
        assert [s.spec_key() for s in clone.expand()] == [
            s.spec_key() for s in sweep.expand()
        ]


class TestRegistry:
    def test_seeded_sweeps_are_registered(self):
        names = scenarios.sweep_names()
        assert "grid-smoke" in names
        assert "fig5-grid" in names
        assert "fleet-grid" in names

    def test_fleet_grid_is_fleet_scale(self):
        assert scenarios.get_sweep("fleet-grid").size >= 256

    def test_unknown_sweep_error_lists_known(self):
        with pytest.raises(ScenarioError, match="known:"):
            scenarios.get_sweep("no-such-sweep")

    def test_duplicate_registration_is_rejected(self):
        sweep = scenarios.get_sweep("grid-smoke")
        with pytest.raises(ScenarioError, match="already registered"):
            scenarios.register_sweep(sweep)
        # replace=True is the escape hatch and must keep the registry sane
        assert scenarios.register_sweep(sweep, replace=True) is sweep

    def test_every_registered_sweep_expands(self):
        for sweep in scenarios.sweeps():
            specs = sweep.expand()
            assert len(specs) == sweep.size
            assert len({s.name for s in specs}) == sweep.size


@pytest.mark.quick
class TestSweepSuite:
    def test_grid_runs_through_the_suite_and_facets(self, infra):
        specs = [
            s.with_days(1)
            for s in smoke_sweep(
                axes=(
                    ("policy", ("bml", "upper-global")),
                    ("seed", (3,)),
                )
            ).expand()
        ]
        # shrink to the cheap pattern workload for speed
        specs = [
            replace(
                s,
                workload=replace(
                    scenarios.get("pattern-steady").workload, seed=s.workload.seed
                ),
            )
            for s in specs
        ]
        runs = scenarios.run_suite(specs, jobs=1, infra=infra)
        from repro.results import SuiteReport

        report = SuiteReport.from_runs(runs)
        assert report.facet_axes() == ["policy", "seed"]
        rows = report.facet_rows("policy")
        assert [r["policy"] for r in rows] == ["bml", "upper-global"]
        assert all(r["n"] == 1 for r in rows)
        with pytest.raises(ValueError, match="no record carries"):
            report.facet_rows("window")
