"""Tests for the command-line interface on top of the parallel runner."""

import json

import pytest

from repro.cli import main
from repro.scenarios.results import ExperimentResult
from repro.runner import load_artifact, load_profile_artifact
from repro.runner.registry import _REGISTRY, ExperimentSpec, register


class TestArgumentErrors:
    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig99"])
        assert excinfo.value.code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_cell_selector(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--cells", "fig2:BlobCR-app:999", "--no-progress"])
        assert excinfo.value.code == 2
        assert "unknown cell selector" in capsys.readouterr().err

    def test_cells_of_foreign_experiment(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig99x:foo", "--cells", "fig99x:foo"])
        assert excinfo.value.code == 2

    def test_selector_outside_requested_experiments(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--cells", "fig2:BlobCR-app"])
        assert excinfo.value.code == 2
        assert "outside the requested experiments" in capsys.readouterr().err

    def test_bad_worker_count(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--workers", "0"])
        assert excinfo.value.code == 2


class TestListCells:
    def test_list_cells_for_one_experiment(self, capsys):
        assert main(["fig7", "--list-cells"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["fig7:off", "fig7:dedup", "fig7:zlib"]

    def test_list_cells_respects_selectors(self, capsys):
        assert main(["--cells", "fig7:zlib", "--list-cells"]) == 0
        assert capsys.readouterr().out.splitlines() == ["fig7:zlib"]


class TestRuns:
    def test_single_cell_run_with_json(self, capsys):
        assert main(["--cells", "fig4:BlobCR-app:50MB", "--json", "-", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "# fig4:" in out
        payload = json.loads(out[out.index("{") :])
        assert list(payload) == ["fig4"]
        rows = payload["fig4"]["rows"]
        assert len(rows) == 1
        assert set(rows[0]) == {"buffer_MB", "BlobCR-app"}
        assert rows[0]["buffer_MB"] == 50
        assert rows[0]["BlobCR-app"] > 0

    def test_progress_reported_on_stderr(self, capsys):
        assert main(["--cells", "fig7:off", "--workers", "2"]) == 0
        captured = capsys.readouterr()
        assert "[1/1] fig7:off" in captured.err
        assert "fig7" in captured.out

    def test_workers_produce_identical_stdout(self, capsys):
        assert main(["--cells", "fig7:off,fig7:dedup", "--no-progress"]) == 0
        sequential = capsys.readouterr().out
        assert main(["--cells", "fig7:off,fig7:dedup", "--workers", "2", "--no-progress"]) == 0
        parallel = capsys.readouterr().out
        assert sequential == parallel

    def test_artifact_written_and_valid(self, tmp_path, capsys):
        path = tmp_path / "artifact.json"
        argv = ["--cells", "fig7:off", "--artifact", str(path), "--no-progress"]
        assert main(argv) == 0
        capsys.readouterr()
        document = load_artifact(str(path))
        assert document["run"]["argv"] == argv
        assert document["run"]["workers"] == 1
        assert [c["key"] for c in document["cells"]] == ["fig7:off"]
        assert document["experiments"]["fig7"]["rows"]


class TestOverridesAndSeed:
    def test_bad_override_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--override", "nonsense.axis=1", "--no-progress"])
        assert excinfo.value.code == 2
        assert "override" in capsys.readouterr().err

    def test_bad_cluster_value_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--override", "cluster.compute_nodes=zero", "--no-progress"])
        assert excinfo.value.code == 2

    def test_override_outside_selected_experiments_rejected(self, capsys):
        # A valid override addressed to an unselected scenario would be
        # silently inert (yet recorded in the artifact): reject it.
        with pytest.raises(SystemExit) as excinfo:
            main(["fig2", "--override", "scale.instances=4", "--no-progress"])
        assert excinfo.value.code == 2
        assert "not selected" in capsys.readouterr().err

    def test_multi_value_override_of_non_key_axis_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ft", "--override", "ft.instances=4|8", "--list-cells"])
        assert excinfo.value.code == 2
        assert "duplicate cell keys" in capsys.readouterr().err

    def test_axis_override_restricts_cells(self, capsys):
        argv = [
            "ft",
            "--override",
            "ft.mtbf=150",
            "--override",
            "ft.approach=qcow2-full",
            "--list-cells",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == ["ft:qcow2-full:150"]

    def test_seed_changes_results_and_is_recorded(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        seeded = tmp_path / "seeded.json"
        argv = ["--cells", "fig2:BlobCR-app:4:50MB", "--no-progress"]
        assert main(argv + ["--json", str(base)]) == 0
        assert main(
            argv + [
                "--json", str(seeded), "--seed", "7", "--artifact", str(tmp_path / "artifact.json")
            ]
        ) == 0
        capsys.readouterr()
        with open(base) as handle:
            rows_a = json.load(handle)["fig2"]["rows"]
        with open(seeded) as handle:
            rows_b = json.load(handle)["fig2"]["rows"]
        # Different base seed, different jitter draws, different timings.
        assert rows_a != rows_b
        document = load_artifact(str(tmp_path / "artifact.json"))
        assert document["environment"]["seed"] == 7
        assert document["environment"]["overrides"] == []

    def test_solver_flags_fold_into_recorded_overrides(self, tmp_path, capsys):
        """--solver-verify is shorthand for the cluster.solver.verify
        override, so the artifact records it."""
        artifact = tmp_path / "artifact.json"
        argv = [
            "--cells",
            "fig2:BlobCR-app:4:50MB",
            "--no-progress",
            "--solver-verify",
            "--artifact",
            str(artifact),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        document = load_artifact(str(artifact))
        assert document["environment"]["overrides"] == ["cluster.solver.verify=true"]

    @pytest.mark.parametrize("flag", ["--solver-no-batch", "--solver-no-persist"])
    def test_removed_solver_flags_are_argparse_errors(self, flag, capsys):
        """The A/B engines are gone; their flags must fail, not be ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--cells", "fig2:BlobCR-app:4:50MB", "--no-progress", flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["batching", "persistence"])
    def test_removed_solver_override_fields_rejected(self, field, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig2", "--no-progress", "--override", f"cluster.solver.{field}=false"])
        assert excinfo.value.code == 2
        assert (
            f"unknown cluster override field cluster.solver.{field}"
            in capsys.readouterr().err
        )

    def test_cluster_override_applies(self, capsys):
        argv = [
            "--cells",
            "fig7:off",
            "--no-progress",
            "--json",
            "-",
            "--override",
            "cluster.blobseer.chunk_size=131072",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        rows = json.loads(out[out.index("{"):])["fig7"]["rows"]
        assert rows  # the overridden cluster still produces the ablation rows


class TestZeroRowResilience:
    @pytest.fixture()
    def empty_experiment(self):
        """Temporarily register an experiment that yields no cells/rows."""
        name = "emptytest"
        register(
            ExperimentSpec(
                name=name,
                description="an experiment with no cells",
                enumerate_cells=lambda config: [],
                merge=lambda results: ExperimentResult(
                    experiment=name, description="an experiment with no cells"
                ),
            )
        )
        yield name
        _REGISTRY.pop(name, None)

    def test_empty_result_renders_and_serialises(self, empty_experiment, capsys):
        assert main([empty_experiment, "--json", "-", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "(no rows)" in out
        payload = json.loads(out[out.index("{") :])
        assert payload[empty_experiment]["rows"] == []

    def test_empty_to_table_includes_description(self):
        result = ExperimentResult(experiment="figX", description="nothing to see")
        assert result.columns() == []
        assert "(no rows)" in result.to_table()
        assert "figX" in result.to_table()
        # rows carrying only empty dicts behave the same
        result.rows.append({})
        assert "(no rows)" in result.to_table()


class TestProfileSubcommand:
    def test_profile_writes_counters_and_artifact(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        argv = [
            "profile",
            "--cells",
            "fig7:off",
            "--profile-artifact",
            str(path),
            "--no-progress",
            "--top",
            "5",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "simulator work counters" in out
        assert "events_popped" in out
        document = load_profile_artifact(str(path))
        assert document["run"]["argv"] == argv
        assert document["run"]["cells"] == 1
        assert len(document["hotspots"]) == 5
        (cell,) = document["counters"]["per_cell"]
        assert cell["key"] == "fig7:off"
        counters = cell["counters"]
        assert counters["events_popped"] > 0
        assert counters["bw_flows_completed"] > 0
        assert counters["bw_flows_started"] == counters["bw_flows_completed"]
        aggregate = document["counters"]["aggregate"]
        assert aggregate["events_popped"] == counters["events_popped"]

    def test_profile_counters_are_deterministic(self, tmp_path, capsys):
        documents = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            argv = ["profile", "--cells", "fig7:off", "--profile-artifact", str(path)]
            assert main(argv) == 0
            capsys.readouterr()
            documents.append(load_profile_artifact(str(path)))
        first, second = (d["counters"]["aggregate"] for d in documents)
        assert first == second  # exact: counters are properties of the model

    def test_profile_shares_run_validation(self, capsys):
        with pytest.raises(SystemExit):
            main(["profile", "nosuch"])
        assert "unknown experiment" in capsys.readouterr().err
