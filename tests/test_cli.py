"""Tests for the command-line interface on top of the parallel runner."""

import json

import pytest

from repro.api import Session
from repro.cli import main, resolve_run_inputs
from repro.scenarios.results import ExperimentResult
from repro.runner import load_all, load_artifact
from repro.sim.instrumentation import aggregate_counters
from repro.runner.registry import _REGISTRY
from repro.scenarios import Axis, ScenarioSpec, approach_matrix, register_scenario


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
        assert document["host"]["argv"] == argv
        assert document["host"]["workers"] == 1
        assert [c["key"] for c in document["cells"]] == ["fig7:off"]
        assert document["experiments"]["fig7"]["rows"]

    def test_workers_do_not_change_the_artifact_outside_host(self, tmp_path, capsys):
        documents = []
        for workers in ("1", "2"):
            path = tmp_path / f"workers-{workers}.json"
            argv = ["--cells", "fig7:off,fig7:zlib", "--artifact", str(path), "--no-progress"]
            assert main(argv + ["--workers", workers]) == 0
            documents.append(load_artifact(str(path)))
        capsys.readouterr()
        sequential, parallel = documents
        assert [sequential["host"]["workers"], parallel["host"]["workers"]] == [1, 2]
        assert [c["counters"] for c in sequential["cells"]] == [
            c["counters"] for c in parallel["cells"]
        ]
        assert sequential.pop("host") != parallel.pop("host")
        assert sequential == parallel


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
        assert document["run"]["seed"] == 7
        assert document["run"]["overrides"] == []

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
        assert document["run"]["overrides"] == ["cluster.solver.verify=true"]

    # the "profile" case left with its subcommand; the id of this one is kept
    @pytest.mark.parametrize("subcommand", ["trace"])
    def test_solver_flag_recorded_by_profile_and_trace(self, subcommand, tmp_path, capsys):
        artifact = tmp_path / f"{subcommand}.json"
        argv = [subcommand, "--cells", "fig7:off", "--no-progress", "--solver-verify"]
        argv += [f"--{subcommand}-artifact", str(artifact)]
        argv += ["--chrome", str(tmp_path / "chrome.json")]
        assert main(argv) == 0
        capsys.readouterr()
        assert load_artifact(str(artifact))["run"]["overrides"] == ["cluster.solver.verify=true"]

    def test_solver_flag_leaves_the_callers_overrides_alone(self):
        """resolve_run_inputs is also called by out-of-process harnesses with
        a list they own: folding the flag must not append to that list, or a
        second call records the override twice."""
        names = load_all()
        overrides = ["cluster.seed=3"]
        for _ in range(2):
            _, _, config = resolve_run_inputs(names, ["fig7"], [], overrides, solver_verify=True)
            assert config.overrides == ("cluster.seed=3", "cluster.solver.verify=true")
        assert overrides == ["cluster.seed=3"]

    @pytest.mark.parametrize("flag", ["--solver-no-batch", "--solver-no-persist"])
    def test_removed_solver_flags_are_argparse_errors(self, flag, capsys):
        """The A/B engines are gone; their flags must fail, not be ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--cells", "fig2:BlobCR-app:4:50MB", "--no-progress", flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["batching", "persistence", "instrumentation"])
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


def _adhoc_cell(n, spec=None):
    return {"approach": "twice", "n": n, "value": 2 * n, "sim_time_s": 0.0}


class TestAdHocScenario:
    """The README "Authoring scenarios" path: one ``register_scenario`` call
    makes a spec runnable through the CLI and the Session facade."""

    NAME = "adhoctest"

    @pytest.fixture()
    def adhoc(self):
        description = "an ad-hoc two-cell scenario"
        load_all()
        register_scenario(
            ScenarioSpec(
                name=self.NAME,
                description=description,
                axes=(Axis("n", (1, 2)),),
                key_axes=("n",),
                cell_func=_adhoc_cell,
                cell_params=lambda point: {"n": point["n"]},
                merge=approach_matrix(
                    self.NAME,
                    description,
                    row_key=lambda p: {"n": p["n"]},
                    value=lambda p: p["value"],
                ),
            )
        )
        yield self.NAME
        _REGISTRY.pop(self.NAME, None)

    def test_lands_after_the_canonical_names(self, adhoc):
        names = load_all()
        assert len(names) == 14 and names[-2:] == ["mig", adhoc]

    def test_runs_through_the_cli(self, adhoc, capsys):
        assert main([adhoc, "--json", "-", "--no-progress"]) == 0
        out = capsys.readouterr().out
        rows = json.loads(out[out.index("{") :])[adhoc]["rows"]
        assert rows == [{"n": 1, "twice": 2}, {"n": 2, "twice": 4}]

    def test_list_cells(self, adhoc, capsys):
        assert main([adhoc, "--list-cells"]) == 0
        assert capsys.readouterr().out.split() == [f"{adhoc}:1", f"{adhoc}:2"]

    def test_runs_through_the_session(self, adhoc):
        report = Session().run_scenario(adhoc, cells=[f"{adhoc}:2"])
        assert report.cell_keys == (f"{adhoc}:2",)
        assert report.rows == [{"n": 2, "twice": 4}]


class TestZeroRowResilience:
    def test_empty_result_renders_and_serialises(self, capsys):
        # fig4 is requested but every selector addresses fig7: it merges
        # zero cells and must still render and serialise.
        assert main(["fig4", "fig7", "--cells", "fig7:off", "--json", "-", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "(no rows)" in out
        payload = json.loads(out[out.index("{") :])
        assert payload["fig4"]["rows"] == []

    def test_empty_to_table_includes_description(self):
        result = ExperimentResult(experiment="figX", description="nothing to see")
        assert result.columns() == []
        assert "(no rows)" in result.to_table()
        assert "figX" in result.to_table()
        # rows carrying only empty dicts behave the same
        result.rows.append({})
        assert "(no rows)" in result.to_table()


class TestProfileSubcommand:
    """What ``blobcr-repro profile`` guaranteed, held on the path that took it
    over: the subcommand is gone and every ``--artifact`` carries the
    per-cell work counters (the test names are kept so the history lines up)."""

    def test_profile_writes_counters_and_artifact(self, tmp_path, capsys):
        path = tmp_path / "artifact.json"
        argv = ["--cells", "fig7:off", "--artifact", str(path), "--no-progress"]
        assert main(argv) == 0
        capsys.readouterr()
        document = load_artifact(str(path))
        assert document["host"]["argv"] == argv
        assert document["run"]["cells"] == 1
        (cell,) = document["cells"]
        assert cell["key"] == "fig7:off"
        counters = cell["counters"]
        assert counters["events_popped"] > 0
        assert counters["bw_flows_completed"] > 0
        assert counters["bw_flows_started"] == counters["bw_flows_completed"]
        aggregate = document["counters"]["aggregate"]
        assert aggregate["events_popped"] == counters["events_popped"]
        assert aggregate == aggregate_counters([counters])

    def test_profile_counters_are_deterministic(self, tmp_path, capsys):
        documents = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            argv = ["--cells", "fig7:off", "--artifact", str(path), "--no-progress"]
            assert main(argv) == 0
            capsys.readouterr()
            documents.append(load_artifact(str(path)))
        first, second = (d["counters"]["aggregate"] for d in documents)
        assert first == second  # exact: counters are properties of the model
        assert documents[0]["cells"] == documents[1]["cells"]

    def test_profile_shares_run_validation(self, capsys):
        # `profile` is no subcommand any more: it is read as an experiment name
        with pytest.raises(SystemExit):
            main(["profile"])
        assert "unknown experiment(s): profile" in capsys.readouterr().err
