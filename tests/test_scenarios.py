"""Tests for the declarative scenario engine (spec, overrides, new sweeps)."""

import dataclasses
import re
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blobseer import BlobClient
from repro.runner import ParallelRunner, RunConfig, load_all, resolve_run_inputs
from repro.runner.cells import execute_cell
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

NAMES = load_all()
#: every key an override can address: ``<scenario>.<axis>`` and ``cluster.<path>``
OVERRIDE_KEYS = [f"{name}.{axis.name}" for name in NAMES for axis in get_scenario(name).axes]
OVERRIDE_KEYS += [f"cluster.{path}" for path, _ in CLUSTER_FIELDS]

_VALUE = st.one_of(
    st.text(max_size=6),
    st.from_regex(r"\A-?(\d{1,4}(\.\d{0,2})?(e-?\d)?|nan|inf|true|off|fifo|BlobCR-app)\Z"),
)
_OVERRIDE = st.one_of(
    st.text(max_size=24),
    st.from_regex(r"\A[\w .*|=-]{0,24}\Z"),
    st.builds(
        lambda key, values: f"{key}={'|'.join(values)}",
        st.sampled_from(OVERRIDE_KEYS),
        st.lists(_VALUE, max_size=3),
    ),
)
_SEGMENT = st.one_of(
    st.sampled_from(NAMES + ["*", "fig*", "BlobCR-app", "nofail", "24", "50MB", "f*", ""]),
    st.from_regex(r"\A[\w*?\[\]!. -]{0,6}\Z"),
)
_SELECTOR = st.one_of(
    st.text(max_size=24),
    st.from_regex(r"\A[\w*?\[\]!:, -]{0,24}\Z"),
    st.builds(":".join, st.lists(_SEGMENT, min_size=1, max_size=4)),
)
#: a run of everything (what an override addresses), or of one scenario
_EXPERIMENTS = st.sampled_from([[], [], [], ["fig2"], ["mtc"]])


def _names(message, token):
    """Whether ``message`` names ``token`` (verbatim, or quoted as its repr)."""
    if not token:
        return repr(token) in message
    return token in message or repr(token)[1:-1] in message


def _enumerate(experiments, cells=(), overrides=()):
    """The one selection pipeline, then cell enumeration (nothing runs)."""
    chosen, selectors, config = resolve_run_inputs(NAMES, experiments, cells, overrides)
    ParallelRunner().enumerate(chosen, config, selectors)


class TestAxis:
    def test_pick_scales(self):
        axis = Axis("n", (1, 2), paper_values=(10, 20))
        assert axis.pick(False) == (1, 2)
        assert axis.pick(True) == (10, 20)
        assert Axis("n", (1, 2)).pick(True) == (1, 2)

    def test_coerce_follows_value_type(self):
        assert Axis("n", (4, 8)).coerce("16", "x") == 16
        assert Axis("f", (0.5,)).coerce("2.5", "x") == 2.5
        assert Axis("s", ("a",)).coerce("b", "x") == "b"
        with pytest.raises(ConfigurationError, match="cannot parse 'many' .* x.n"):
            Axis("n", (4,)).coerce("many", "x")

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="no values"):
            Axis("n", ()).validate()
        with pytest.raises(ConfigurationError, match="non-empty"):
            Axis("", (1,)).validate()

    @pytest.mark.parametrize(
        "override, token",
        [
            ("ft.mtbf=nan", "nan"),
            ("ft.mtbf=inf", "inf"),
            ("contention.flows=-2", "-2"),
            ("fig7.changed_fraction=-1", "-1"),
            ("mtc.hold=nan", "nan"),
            ("mtc.max_queue=-1", "-1"),
            ("evac.lead=-5", "-5"),
            ("scale.instances=16|-16", "-16"),
        ],
    )
    def test_negative_and_non_finite_tokens_are_rejected(self, override, token):
        load_all()
        key = override.split("=")[0]
        scenario = get_scenario(key.split(".")[0])
        with pytest.raises(ConfigurationError, match=re.escape(f"{key} must be")) as excinfo:
            scenario.enumerate_cells(RunConfig(overrides=(override,)))
        assert repr(token) in str(excinfo.value)


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
                merge=lambda r: None,
            ).validate()
        with pytest.raises(ConfigurationError, match="not sweep axes"):
            ScenarioSpec(
                name="x",
                description="",
                axes=(Axis("a", (1,)),),
                key_axes=("a", "b"),
                cell_func=lambda: {},
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

    def test_cells_receive_the_runs_cluster_spec(self):
        # A scenario's cluster plan is its cell function's business: every
        # cell gets the run's spec (None for the default calibration) as is.
        assert FT.enumerate_cells(RunConfig())[0].params["spec"] is None
        assert FT.enumerate_cells(RunConfig(spec=SMALL))[0].params["spec"] is SMALL


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
        assert scenario_overrides_for(FT, ("fig2.instances=4", "cluster.seed=1")) == {}


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
        result = CONTENTION.merge([execute_cell(cell) for cell in sweep.build_cells()])
        by_flows = {row["flows"]: row["BlobCR-app"] for row in result.rows}
        assert by_flows[32] > by_flows[0] * 1.2

    def test_ft_merge_reports_recovery(self):
        cells = FT.with_axis_values(
            mtbf=(150.0,), approach=("qcow2-full",), instances=(4,), periods=(2,)
        ).build_cells(cluster_spec=SMALL)
        result = merge_ft([execute_cell(cell) for cell in cells])
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["mtbf_s"] == 150.0
        assert row["recovered_ok"]
        assert row["qcow2-full rollbacks"] >= 1
        assert row["qcow2-full total_s"] > 0


class TestUnalignedCommits:
    """At the default geometry a COMMIT writes whole stripes.  A COW block
    smaller than a BlobSeer stripe -- a ``chunk_size`` of twice the block, or
    a ``cow_block_size`` of half or a quarter of the stripe -- commits parts
    of stripes, which ``write_batch`` merges over the base version's content
    (one window spliced, several overlaid in a buffer)."""

    @pytest.mark.parametrize(
        "override",
        [
            f"cluster.blobseer.chunk_size={2 * GRAPHENE.checkpoint.cow_block_size}",
            f"cluster.checkpoint.cow_block_size={GRAPHENE.blobseer.chunk_size // 2}",
            f"cluster.checkpoint.cow_block_size={GRAPHENE.blobseer.chunk_size // 4}",
        ],
    )
    def test_a_block_smaller_than_a_stripe_round_trips(self, override, monkeypatch):
        chosen, selectors, config = resolve_run_inputs(
            NAMES, ["fig2"], ["fig2:BlobCR-app:4:50MB"], [override]
        )
        (cell,) = ParallelRunner().enumerate(chosen, config, selectors)
        merged = []
        merge = BlobClient._merge_windows

        def spy(self, *args):
            merged.append(args)
            return merge(self, *args)

        monkeypatch.setattr(BlobClient, "_merge_windows", spy)
        assert execute_cell(cell).payload["restored_ok"] is True
        assert merged


class TestBadSelectionInput:
    """A ``--cells`` selector or an ``--override`` either enumerates or raises
    a ConfigurationError that names the offending token; nothing else escapes."""

    @settings(max_examples=300, deadline=None)
    @given(text=_SELECTOR, experiments=_EXPERIMENTS)
    def test_cells_selectors(self, text, experiments):
        try:
            _enumerate(experiments, cells=[text])
        except ConfigurationError as exc:
            pieces = [piece.strip() for piece in text.split(",") if piece.strip()]
            assert any(_names(str(exc), piece) for piece in pieces), (text, str(exc))

    @settings(max_examples=400, deadline=None)
    @given(raw=_OVERRIDE, experiments=_EXPERIMENTS)
    def test_overrides(self, raw, experiments):
        try:
            _enumerate(experiments, overrides=[raw])
        except ConfigurationError as exc:
            key, _, value = raw.partition("=")
            tokens = [raw, raw.strip(), key.strip(), value.strip()]
            tokens += [token.strip() for token in value.split("|")]
            assert any(_names(str(exc), token) for token in tokens), (raw, str(exc))
