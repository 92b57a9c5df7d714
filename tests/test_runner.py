"""Tests for the registry-driven parallel runner subsystem."""

import copy

import pytest

from repro.scenarios.workloads import run_synthetic_scenario
from repro.runner import (
    ArtifactError,
    ParallelRunner,
    RunConfig,
    build_artifact,
    build_profile_artifact,
    load_all,
    load_artifact,
    load_profile_artifact,
    parse_selectors,
    validate_artifact,
    validate_profile_artifact,
    write_artifact,
    write_profile_artifact,
)
from repro.runner.cells import run_cells_inline
from repro.runner.regression import (
    check_determinism,
    check_regression,
    check_speedup,
    speedup,
)
from repro.runner.select import filter_cells
from repro.scenarios import get_scenario, scenario_names
from repro.scenarios.fig2_checkpoint import SCENARIO as FIG2
from repro.util.config import GRAPHENE
from repro.util.errors import ConfigurationError
from repro.util.units import MB

SMALL = GRAPHENE.scaled(compute_nodes=6, service_nodes=3)
#: fig2 narrowed to one scale point and one (tiny) buffer: five fast cells
FIG2_TINY = FIG2.with_axis_values(instances=(4,), buffer_bytes=(2 * MB,))

CANONICAL = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "ft",
    "scale",
    "contention",
    "mtc",
    "evac",
    "mig",
]


@pytest.fixture(scope="module")
def fig7_report():
    """One sequential fig7 run, shared by the artifact/regression tests."""
    load_all()
    return ParallelRunner(workers=1).run(["fig7"], RunConfig())


@pytest.fixture(scope="module")
def fig7_artifact(fig7_report):
    return build_artifact(fig7_report, argv=["fig7"])


class TestRegistry:
    def test_load_all_registers_canonical_order(self):
        assert load_all() == CANONICAL
        assert scenario_names() == CANONICAL

    def test_unknown_experiment_raises(self):
        load_all()
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("fig99")

    def test_paper_scale_changes_enumeration(self):
        load_all()
        reduced = get_scenario("fig2").enumerate_cells(RunConfig(paper_scale=False))
        paper = get_scenario("fig2").enumerate_cells(RunConfig(paper_scale=True))
        assert len(paper) > len(reduced)
        # 2 buffers x 3 scale points x 5 approaches at the reduced scale
        assert len(reduced) == 30


class TestCellsAndSelectors:
    def test_cell_keys_and_seeds_are_stable(self):
        cells = FIG2_TINY.build_cells(cluster_spec=SMALL)
        assert [c.key for c in cells] == [
            "fig2:BlobCR-app:4:2MB",
            "fig2:qcow2-disk-app:4:2MB",
            "fig2:BlobCR-blcr:4:2MB",
            "fig2:qcow2-disk-blcr:4:2MB",
            "fig2:qcow2-full:4:2MB",
        ]
        seeds = [c.seed for c in cells]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [c.seed for c in FIG2_TINY.build_cells()]

    def test_parse_selectors_commas_and_repeats(self):
        selectors = parse_selectors(["fig2:BlobCR-app,fig7", "fig6:BlobCR-app:16"])
        assert [s.text for s in selectors] == ["fig2:BlobCR-app", "fig7", "fig6:BlobCR-app:16"]
        assert selectors[0].experiment == "fig2"
        assert selectors[0].parts == ("BlobCR-app",)

    def test_filter_cells_prefix_matching(self):
        sweep = FIG2.with_axis_values(instances=(4, 12), buffer_bytes=(2 * MB, 4 * MB))
        cells = sweep.build_cells(cluster_spec=SMALL)
        kept = filter_cells(cells, parse_selectors(["fig2:BlobCR-app:12"]))
        assert [c.key for c in kept] == ["fig2:BlobCR-app:12:2MB", "fig2:BlobCR-app:12:4MB"]
        # no selectors = keep everything
        assert filter_cells(cells, []) == list(cells)

    def test_unknown_cell_selector_raises(self):
        cells = FIG2_TINY.build_cells(cluster_spec=SMALL)
        with pytest.raises(ConfigurationError, match="unknown cell selector"):
            filter_cells(cells, parse_selectors(["fig2:BlobCR-app:999"]))


class TestDeterminism:
    def test_scenario_is_independent_of_prior_runs(self):
        """Regression test: guest pids must not leak state across scenarios.

        The BLCR context-file header embeds the pid, so a host-global pid
        counter made the second identical scenario in one interpreter differ
        from the first by a few bytes (and hence a few milliseconds).
        """
        first = run_synthetic_scenario(
            "qcow2-disk-blcr", 2, 2 * MB, spec=SMALL, include_restart=False
        )
        second = run_synthetic_scenario(
            "qcow2-disk-blcr", 2, 2 * MB, spec=SMALL, include_restart=False
        )
        assert first.checkpoint_time == second.checkpoint_time
        assert first.snapshot_bytes_per_instance == second.snapshot_bytes_per_instance

    def test_workers_do_not_change_rows(self):
        load_all()
        selectors = parse_selectors(["table1:BlobCR-app,table1:qcow2-disk-app"])
        sequential = ParallelRunner(workers=1).run(["table1"], RunConfig(), selectors)
        parallel = ParallelRunner(workers=2).run(["table1"], RunConfig(), selectors)
        assert [r.rows for r in sequential.results] == [r.rows for r in parallel.results]
        assert [c.key for c in sequential.cell_results] == [
            c.key for c in parallel.cell_results
        ]

    def test_progress_callback_sees_every_cell(self):
        load_all()
        seen = []
        runner = ParallelRunner(
            workers=2, progress=lambda done, total, result: seen.append((done, total))
        )
        report = runner.run(["fig7"], RunConfig(), parse_selectors(["fig7:off,fig7:dedup"]))
        assert len(report.cell_results) == 2
        assert sorted(seen) == [(1, 2), (2, 2)]

    def test_merged_subset_keeps_canonical_columns(self):
        cells = FIG2_TINY.build_cells(cluster_spec=SMALL)
        subset = filter_cells(cells, parse_selectors(["fig2:BlobCR-app"]))
        result = get_scenario("fig2").merge(run_cells_inline(subset))
        assert result.rows == [
            {
                "buffer_MB": 2,
                "processes": 4,
                "BlobCR-app": result.rows[0]["BlobCR-app"],
            }
        ]
        assert result.rows[0]["BlobCR-app"] > 0


class TestArtifact:
    def test_round_trip(self, tmp_path, fig7_report, fig7_artifact):
        path = tmp_path / "artifact.json"
        write_artifact(str(path), fig7_artifact)
        loaded = load_artifact(str(path))
        assert loaded == validate_artifact(loaded)
        assert loaded["run"]["workers"] == 1
        assert loaded["run"]["cells"] == 3
        assert [c["key"] for c in loaded["cells"]] == ["fig7:off", "fig7:dedup", "fig7:zlib"]
        assert loaded["experiments"]["fig7"]["rows"] == fig7_report.results[0].rows
        assert loaded["calibration"]["spin_time_s"] > 0
        assert all(c["wall_time_s"] >= 0 for c in loaded["cells"])

    def test_validate_rejects_foreign_documents(self, fig7_artifact):
        with pytest.raises(ArtifactError, match="schema"):
            validate_artifact({"schema": "something-else"})
        with pytest.raises(ArtifactError, match="JSON object"):
            validate_artifact(["not", "a", "dict"])
        broken = copy.deepcopy(fig7_artifact)
        broken["schema_version"] = 999
        with pytest.raises(ArtifactError, match="schema_version"):
            validate_artifact(broken)
        missing = copy.deepcopy(fig7_artifact)
        del missing["calibration"]
        with pytest.raises(ArtifactError, match="calibration"):
            validate_artifact(missing)

    def test_load_rejects_missing_or_invalid_files(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            load_artifact(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_artifact(str(bad))


class TestProfileArtifact:
    @pytest.fixture()
    def profile_document(self):
        return build_profile_artifact(
            experiments=["fig7"],
            cells=[
                {
                    "key": "fig7:off",
                    "experiment": "fig7",
                    "wall_time_s": 0.5,
                    "sim_time_s": 12.0,
                    "counters": {"events_popped": 100, "bw_max_component_flows": 3},
                },
                {
                    "key": "fig7:zlib",
                    "experiment": "fig7",
                    "wall_time_s": 0.7,
                    "sim_time_s": 13.0,
                    "counters": {"events_popped": 50, "bw_max_component_flows": 7},
                },
            ],
            hotspots=[
                {"function": "repro/x.py:1(f)", "ncalls": 10, "tottime_s": 0.1, "cumtime_s": 0.2}
            ],
            wall_time_s=1.25,
            argv=["profile", "fig7"],
            calibrate=False,
        )

    def test_round_trip_and_aggregation(self, tmp_path, profile_document):
        path = tmp_path / "profile.json"
        write_profile_artifact(str(path), profile_document)
        loaded = load_profile_artifact(str(path))
        assert loaded == validate_profile_artifact(loaded)
        aggregate = loaded["counters"]["aggregate"]
        assert aggregate["events_popped"] == 150  # additive
        assert aggregate["bw_max_component_flows"] == 7  # max, not sum
        assert loaded["run"]["cells"] == 2
        assert loaded["run"]["wall_time_s"] == 1.25

    def test_validator_rejects_malformed_documents(self, profile_document):
        with pytest.raises(ArtifactError, match="schema"):
            validate_profile_artifact({"schema": "blobcr-repro/bench-artifact"})
        broken = copy.deepcopy(profile_document)
        broken["counters"]["per_cell"][0].pop("counters")
        with pytest.raises(ArtifactError, match="missing 'counters'"):
            validate_profile_artifact(broken)
        broken = copy.deepcopy(profile_document)
        broken["hotspots"] = [{"function": "f"}]
        with pytest.raises(ArtifactError, match="hotspot"):
            validate_profile_artifact(broken)
        broken = copy.deepcopy(profile_document)
        broken["schema_version"] = 99
        with pytest.raises(ArtifactError, match="schema_version"):
            validate_profile_artifact(broken)


class TestRegressionGate:
    def test_identical_artifacts_pass(self, fig7_artifact):
        report = check_regression(fig7_artifact, fig7_artifact)
        assert report.ok, report.failures

    def test_large_regression_fails(self, fig7_artifact):
        slow = copy.deepcopy(fig7_artifact)
        for experiment in slow["experiments"].values():
            experiment["wall_time_s"] = experiment["wall_time_s"] * 10 + 100
        report = check_regression(fig7_artifact, slow)
        assert not report.ok
        assert any("exceeds calibrated allowance" in f for f in report.failures)

    def test_calibration_scales_the_allowance(self, fig7_artifact):
        # Twice-slower machine: the same 10x slowdown passes once the
        # baseline spin time says the hardware itself is 20x slower.
        slow = copy.deepcopy(fig7_artifact)
        for experiment in slow["experiments"].values():
            experiment["wall_time_s"] *= 10
        slow["calibration"]["spin_time_s"] = fig7_artifact["calibration"]["spin_time_s"] * 20
        report = check_regression(fig7_artifact, slow)
        assert report.ok, report.failures

    def test_new_experiments_need_an_explicit_baseline(self, fig7_artifact):
        extended = copy.deepcopy(fig7_artifact)
        extended["experiments"]["ft"] = {"rows": [], "wall_time_s": 1.0}
        report = check_regression(fig7_artifact, extended)
        assert not report.ok
        assert any("without a committed baseline" in f for f in report.failures)
        allowed = check_regression(fig7_artifact, extended, allow_new=True)
        assert allowed.ok, allowed.failures
        assert any("ungated" in line for line in allowed.lines)
        # Baseline-only experiments are reported, not silently skipped.
        report = check_regression(extended, fig7_artifact)
        assert report.ok, report.failures
        assert any("baseline-only" in line for line in report.lines)

    def test_allow_new_covers_an_all_new_artifact(self, fig7_artifact):
        # Recording a brand-new scenario alone: nothing shared with the
        # baseline, but --allow-new-experiments accounts for all of it.
        novel = copy.deepcopy(fig7_artifact)
        novel["experiments"] = {"newscenario": {"rows": [], "wall_time_s": 1.0}}
        assert not check_regression(fig7_artifact, novel).ok
        report = check_regression(fig7_artifact, novel, allow_new=True)
        assert report.ok, report.failures
        assert any("ungated" in line for line in report.lines)

    def test_determinism_gate(self, fig7_artifact):
        assert check_determinism(fig7_artifact, fig7_artifact).ok
        mutated = copy.deepcopy(fig7_artifact)
        mutated["experiments"]["fig7"]["rows"][0]["off time_s"] += 1.0
        report = check_determinism(fig7_artifact, mutated)
        assert not report.ok
        assert "fig7" in report.failures[0]

    def test_speedup_gate(self, fig7_artifact):
        fast = copy.deepcopy(fig7_artifact)
        fast["run"]["wall_time_s"] = fig7_artifact["run"]["wall_time_s"] / 2
        fast["environment"]["cpu_count"] = 4
        assert speedup(fig7_artifact, fast) == pytest.approx(2.0)
        assert check_speedup(fig7_artifact, fast, min_speedup=1.5).ok
        assert not check_speedup(fig7_artifact, fast, min_speedup=2.5).ok

    def test_speedup_gate_skips_on_single_core(self, fig7_artifact):
        slow = copy.deepcopy(fig7_artifact)
        slow["run"]["wall_time_s"] = fig7_artifact["run"]["wall_time_s"] * 2
        slow["environment"]["cpu_count"] = 1
        report = check_speedup(fig7_artifact, slow, min_speedup=1.05)
        assert report.ok
        assert any("skipped" in line for line in report.lines)
