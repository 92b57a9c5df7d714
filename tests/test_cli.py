"""Tests for the command-line interface on top of the parallel runner."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import Session
from repro.cli import main
from repro.scenarios.results import ExperimentResult
from repro.runner import RunConfig, load_all, load_artifact, resolve_run_inputs
from repro.sim.instrumentation import aggregate_counters
from repro.runner.registry import _REGISTRY
from repro.scenarios import Axis, ScenarioSpec, get_scenario, merge_rows, register_scenario

README = Path(__file__).resolve().parents[1] / "README.md"
#: the cheapest cell that writes outputs
SMALLEST_FIG3 = "fig3:BlobCR-app:4:50MB"


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("--seed x", "argument --seed: invalid int value: 'x'"),
            ("--override cluster.solver=1", "cluster.solver is a group, not a field"),
            ("--override scale.instances=", "override 'scale.instances=' carries no values"),
            ("--cells nope:zz", "unknown experiment(s) in --cells: nope:zz"),
            (f"--cells {SMALLEST_FIG3} --json {{missing}}", "cannot write JSON output to"),
            (f"--cells {SMALLEST_FIG3} --artifact {{missing}}", "cannot write artifact to"),
            (
                f"trace {SMALLEST_FIG3} --chrome {{missing}} --trace-artifact {{ok}}",
                "cannot write Chrome trace to",
            ),
            (f"trace {SMALLEST_FIG3} --trace-artifact {{missing}}", "cannot write trace artifact"),
        ],
        ids=["seed", "group", "no-values", "cells", "json", "artifact", "chrome", "trace-artifact"],
    )
    def test_a_bad_flag_exits_2_with_one_error_line(self, argv, message, tmp_path, capsys):
        paths = {"missing": tmp_path / "no-such-dir" / "out.json", "ok": tmp_path / "ok.json"}
        with pytest.raises(SystemExit) as excinfo:
            main(argv.format(**paths).split() + ["--no-progress"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0], err
        assert err.splitlines()[-1] == errors[0]


class TestListCells:
    def test_list_cells_for_one_experiment(self, capsys):
        assert main(["fig7", "--list-cells"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["fig7:off", "fig7:dedup", "fig7:zlib"]

    def test_list_cells_respects_selectors(self, capsys):
        assert main(["--cells", "fig7:zlib", "--list-cells"]) == 0
        assert capsys.readouterr().out.splitlines() == ["fig7:zlib"]

    def test_a_trace_lists_the_cells_it_would_trace_and_writes_nothing(self, tmp_path, capsys):
        artifact = tmp_path / "trace.json"
        argv = ["fig2:BlobCR-app:24", "--trace-artifact", str(artifact), "--list-cells"]
        assert main(["trace", *argv]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert listed == ["fig2:BlobCR-app:24:50MB", "fig2:BlobCR-app:24:200MB"]
        assert not artifact.exists()
        assert main(["--cells", "fig2:BlobCR-app:24", "--list-cells"]) == 0
        assert capsys.readouterr().out.splitlines() == listed


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

    @pytest.mark.parametrize(
        "command, parameter",
        [
            ("fig5 --override fig5.checkpoints=0 --cells fig5:BlobCR-app", "checkpoints"),
            ("fig2 --override fig2.instances=0 --cells fig2:BlobCR-app", "instances"),
            ("evac --override evac.instances=0", "instances"),
            ("fig2 --override fig2.buffer_bytes=0 --cells fig2:BlobCR-app:4", "buffer_bytes"),
            ("fig6 --override fig6.processes=0 --cells fig6:BlobCR-app", "processes"),
            ("fig7 --override fig7.checkpoints=0 --cells fig7:off", "checkpoints"),
            ("fig7 --override fig7.state_bytes=0 --cells fig7:off", "state_bytes"),
            ("fig7 --override fig7.state_bytes=1000 --cells fig7:off", "state_bytes"),
            ("fig7 --override fig7.changed_fraction=0 --cells fig7:off", "changed_fraction"),
            ("fig7 --override fig7.changed_fraction=3 --cells fig7:off", "changed_fraction"),
            ("ft --override ft.instances=0", "instances"),
            ("ft --override ft.buffer_bytes=0", "buffer_bytes"),
            ("ft --override ft.periods=0", "periods"),
            ("contention --override contention.instances=0", "instances"),
            ("contention --override contention.buffer_bytes=0", "buffer_bytes"),
        ],
    )
    def test_zero_count_is_a_clean_error(self, command, parameter, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command.split() + ["--workers", "1", "--no-progress"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"blobcr-repro: error: {parameter} must be" in err
        assert "Traceback" not in err

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
                merge=merge_rows(
                    self.NAME,
                    description,
                    row_key=lambda p: {"n": p["n"]},
                    columns=lambda p: {p["approach"]: p["value"]},
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


class TestReadmeScenarioSnippet:
    """The README "Authoring scenarios" snippet runs as documented."""

    def _snippet(self):
        section = README.read_text().split("## Authoring scenarios", 1)[1]
        return section.split("```python\n", 1)[1].split("\n```", 1)[0]

    def test_registers_enumerates_and_merges(self):
        load_all()
        try:
            exec(compile(self._snippet(), str(README), "exec"), {})
            assert load_all()[-1] == "bigbuf"
            spec = get_scenario("bigbuf")
            cells = spec.enumerate_cells(RunConfig())
            assert [cell.key for cell in cells] == [
                "bigbuf:BlobCR-app:400MB",
                "bigbuf:qcow2-disk-app:400MB",
            ]
            assert cells[0].params == {
                "buffer_bytes": 400 * 10**6,
                "approach": "BlobCR-app",
                "instances": 8,
                "spec": None,
            }
            paper = spec.enumerate_cells(RunConfig(paper_scale=True))
            assert [cell.key for cell in paper][0] == "bigbuf:BlobCR-app:1000MB"
            overridden = spec.enumerate_cells(RunConfig(overrides=("bigbuf.instances=16",)))
            assert [cell.params["instances"] for cell in overridden] == [16, 16]
            payloads = [
                {"approach": "BlobCR-app", "buffer_bytes": 400 * 10**6, "checkpoint_time": 1.0},
                {"approach": "qcow2-disk-app", "buffer_bytes": 400 * 10**6, "checkpoint_time": 2.0},
            ]
            rows = spec.merge([SimpleNamespace(payload=p) for p in payloads]).rows
            assert rows == [{"buffer_MB": 400, "BlobCR-app": 1.0, "qcow2-disk-app": 2.0}]
        finally:
            _REGISTRY.pop("bigbuf", None)
        assert "bigbuf" not in load_all()


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
