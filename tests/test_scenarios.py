"""Tests for the declarative scenario engine (spec, overrides, new sweeps)."""

import dataclasses
import re
import typing

import pytest

from repro.runner import RunConfig, load_all
from repro.runner.cells import run_cells_inline
from repro.scenarios import (
    Axis,
    FailurePlan,
    ScenarioSpec,
    apply_cluster_overrides,
    get_scenario,
    scenario_names,
    split_overrides,
)
from repro.scenarios.contention import SCENARIO as CONTENTION
from repro.scenarios.fault_tolerance import SCENARIO as FT
from repro.scenarios.fault_tolerance import merge_ft
from repro.scenarios.fig2_checkpoint import SCENARIO as FIG2
from repro.scenarios.overrides import scenario_overrides_for
from repro.scenarios.scale import SCENARIO as SCALE
from repro.util.config import GRAPHENE, ClusterSpec
from repro.util.errors import ConfigurationError

SMALL = GRAPHENE.scaled(compute_nodes=6, service_nodes=3)


def _leaf_fields(cls, prefix=""):
    """``(dotted path, declared type)`` of every field a cluster override can set."""
    for name, kind in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(kind):
            yield from _leaf_fields(kind, f"{prefix}{name}.")
        else:
            optional = [arg for arg in typing.get_args(kind) if arg is not type(None)]
            yield f"{prefix}{name}", optional[0] if optional else kind


CLUSTER_FIELDS = list(_leaf_fields(ClusterSpec))


class TestAxis:
    def test_pick_scales(self):
        axis = Axis("n", (1, 2), paper_values=(10, 20))
        assert axis.pick(False) == (1, 2)
        assert axis.pick(True) == (10, 20)
        assert Axis("n", (1, 2)).pick(True) == (1, 2)

    def test_coerce_follows_value_type(self):
        assert Axis("n", (4, 8)).coerce("16") == 16
        assert Axis("f", (0.5,)).coerce("2.5") == 2.5
        assert Axis("s", ("a",)).coerce("b") == "b"
        with pytest.raises(ConfigurationError, match="cannot parse"):
            Axis("n", (4,)).coerce("many")

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="no values"):
            Axis("n", ()).validate()
        with pytest.raises(ConfigurationError, match="non-empty"):
            Axis("", (1,)).validate()


class TestFailurePlan:
    def test_modes_are_exclusive(self):
        with pytest.raises(ConfigurationError, match="cannot mix"):
            FailurePlan(mtbf_s=10.0, at_times=(1.0,)).validate()
        with pytest.raises(ConfigurationError, match="horizon"):
            FailurePlan(mtbf_s=10.0).validate()
        FailurePlan(mtbf_s=10.0, horizon_s=100.0).validate()
        FailurePlan(at_times=(1.0, 2.0)).validate()
        assert not FailurePlan().enabled


class TestScenarioSpec:
    def test_validation_rejects_bad_specs(self):
        good = FIG2
        with pytest.raises(ConfigurationError, match="duplicate"):
            ScenarioSpec(
                name="x",
                description="",
                axes=(Axis("a", (1,)), Axis("a", (2,))),
                key_axes=("a",),
                cell_func=lambda: {},
                cell_params=lambda p: {},
                merge=lambda r: None,
            ).validate()
        with pytest.raises(ConfigurationError, match="not sweep axes"):
            ScenarioSpec(
                name="x",
                description="",
                axes=(Axis("a", (1,)),),
                key_axes=("a", "b"),
                cell_func=lambda: {},
                cell_params=lambda p: {},
                merge=lambda r: None,
            ).validate()
        good.validate()  # the registered specs are valid

    def test_with_axis_values_unknown_axis(self):
        with pytest.raises(ConfigurationError, match="no axis"):
            FIG2.with_axis_values(nonsense=(1,))

    def test_paper_scale_switches_axis_values(self):
        reduced = FIG2.enumerate_cells(RunConfig(paper_scale=False))
        paper = FIG2.enumerate_cells(RunConfig(paper_scale=True))
        assert len(paper) > len(reduced)

    def test_scale_scenario_reaches_16384_at_paper_scale(self):
        cells = SCALE.enumerate_cells(RunConfig(paper_scale=True))
        assert any(c.params["instances"] == 512 for c in cells)
        assert any(c.params["instances"] == 16384 for c in cells)

    def test_cluster_plan_applies_on_default_and_override(self):
        cells = FT.enumerate_cells(RunConfig())
        assert cells[0].params["spec"].blobseer.replication >= 2
        cells = FT.enumerate_cells(RunConfig(spec=SMALL))
        assert cells[0].params["spec"].compute_nodes == SMALL.compute_nodes
        assert cells[0].params["spec"].blobseer.replication >= 2
        # Paper figures pass the runner's spec through untouched.
        assert FIG2.enumerate_cells(RunConfig())[0].params["spec"] is None


class TestOverrides:
    def test_split_overrides_namespaces(self):
        cluster, scenario = split_overrides(
            ["cluster.compute_nodes=64", "ft.mtbf=300|900"], ["ft", "fig2"]
        )
        assert cluster == [("compute_nodes", "64")]
        assert scenario == ["ft.mtbf=300|900"]

    def test_split_overrides_rejects_unknown_namespace(self):
        with pytest.raises(ConfigurationError, match="neither 'cluster' nor"):
            split_overrides(["nope.axis=1"], ["ft"])
        with pytest.raises(ConfigurationError, match="key=value"):
            split_overrides(["cluster.compute_nodes"], ["ft"])
        with pytest.raises(ConfigurationError, match="must be"):
            split_overrides(["seed=3"], ["ft"])

    def test_apply_cluster_overrides_nested(self):
        spec = apply_cluster_overrides(
            GRAPHENE,
            [
                ("compute_nodes", "64"),
                ("blobseer.replication", "3"),
                ("network.latency", "2e-4"),
                ("jitter", "0"),
            ],
        )
        assert spec.compute_nodes == 64
        assert spec.blobseer.replication == 3
        assert spec.network.latency == 2e-4
        assert spec.jitter == 0.0

    def test_apply_cluster_overrides_rejects_bad_paths(self):
        with pytest.raises(ConfigurationError, match="unknown cluster override"):
            apply_cluster_overrides(GRAPHENE, [("nonsense", "1")])
        with pytest.raises(ConfigurationError, match="is a group"):
            apply_cluster_overrides(GRAPHENE, [("blobseer", "1")])
        with pytest.raises(ConfigurationError, match="invalid cluster override"):
            apply_cluster_overrides(GRAPHENE, [("compute_nodes", "0")])

    @pytest.mark.parametrize("path", [path for path, kind in CLUSTER_FIELDS if kind is float])
    def test_float_fields_take_fractional_tokens(self, path):
        """``disk.bandwidth`` defaults to an int and used to refuse ``27.5e6``."""
        token = "2.5" if path.endswith("compression_ratio") else "0.375"
        spec = apply_cluster_overrides(GRAPHENE, [(path, token)])
        value = spec
        for name in path.split("."):
            value = getattr(value, name)
        assert type(value) is float and value == float(token)

    @pytest.mark.parametrize(
        "path, token",
        [(path, "nan") for path, kind in CLUSTER_FIELDS if kind in (int, float)]
        + [(path, "-1") for path, kind in CLUSTER_FIELDS if kind is float],
    )
    def test_nan_and_negative_values_are_rejected_naming_the_field(self, path, token):
        with pytest.raises(ConfigurationError, match=rf"cluster\.{re.escape(path)}\b"):
            apply_cluster_overrides(GRAPHENE, [(path, token)])

    def test_unlimited_bandwidth_and_no_fingerprint_charge_stay_valid(self):
        spec = apply_cluster_overrides(
            GRAPHENE,
            [("disk.bandwidth", "inf"), ("blobseer.dedup.fingerprint_bandwidth", "0")],
        )
        assert spec.disk.bandwidth == float("inf")
        assert spec.blobseer.dedup.fingerprint_bandwidth == 0.0

    def test_axis_overrides_reach_enumeration(self):
        config = RunConfig(overrides=("ft.mtbf=42", "ft.approach=BlobCR-app"))
        cells = FT.enumerate_cells(config)
        assert [c.key for c in cells] == ["ft:BlobCR-app:42"]
        assert cells[0].params["mtbf"] == 42.0

    def test_axis_overrides_reject_unknown_axis(self):
        with pytest.raises(ConfigurationError, match="no axis"):
            scenario_overrides_for(FT, ("ft.bogus=1",))

    def test_multi_value_sweep_of_non_key_axis_rejected(self):
        # Two instance counts would collapse onto one cell key (same RNG
        # seed, same merged row slot) because `instances` is not a key axis.
        with pytest.raises(ConfigurationError, match="duplicate cell keys"):
            FT.with_axis_values(instances=(4, 8)).build_cells()
        with pytest.raises(ConfigurationError, match="duplicate cell keys"):
            FT.enumerate_cells(RunConfig(overrides=("ft.instances=4|8",)))
        # A single-value override of the same axis is fine.
        cells = FT.enumerate_cells(RunConfig(overrides=("ft.instances=4",)))
        assert all(c.params["instances"] == 4 for c in cells)

    def test_foreign_and_cluster_overrides_are_ignored(self):
        assert scenario_overrides_for(FT, ("fig2.instances=4", "cluster.seed=1"))[0] == {}


class TestScenarioRegistry:
    def test_scenarios_registered_with_experiments(self):
        names = load_all()
        assert names[-6:] == ["ft", "scale", "contention", "mtc", "evac", "mig"]
        assert set(scenario_names()) == set(names)
        assert get_scenario("ft") is FT
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("fig99")


class TestBeyondPaperScenarios:
    def test_contention_slows_checkpoints(self):
        sweep = CONTENTION.with_axis_values(flows=(0, 32), approach=("BlobCR-app",))
        result = CONTENTION.merge(run_cells_inline(sweep.build_cells()))
        by_flows = {row["flows"]: row["BlobCR-app"] for row in result.rows}
        assert by_flows[32] > by_flows[0] * 1.2

    def test_ft_merge_reports_recovery(self):
        cells = FT.with_axis_values(
            mtbf=(150.0,), approach=("qcow2-full",), instances=(4,), periods=(2,)
        ).build_cells(cluster_spec=SMALL)
        result = merge_ft(run_cells_inline(cells))
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["mtbf_s"] == 150.0
        assert row["recovered_ok"]
        assert row["qcow2-full rollbacks"] >= 1
        assert row["qcow2-full total_s"] > 0
