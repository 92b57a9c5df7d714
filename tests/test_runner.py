"""Tests for the registry-driven parallel runner subsystem."""

import copy
import functools
import gc
import json
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.workloads import run_synthetic_cell
from repro.api import Session
from repro.cluster.cloud import Cloud, clouds
from repro.core.repository import CheckpointRepository
from repro.obs import Tracer
from repro.runner import (
    ArtifactError,
    ParallelRunner,
    RunConfig,
    build_artifact,
    load_all,
    load_artifact,
    parse_selectors,
    validate_artifact,
    write_artifact,
)
from repro.runner.cells import Cell, CellResult, execute_cell
from repro.runner.regression import check_determinism, check_speedup, speedup
from repro.sim import instrumentation
from repro.sim.instrumentation import aggregate_counters, counters_snapshot
from repro.runner.select import filter_cells
from repro.scenarios import get_scenario, scenario_names
from repro.scenarios.fig2_checkpoint import SCENARIO as FIG2
from repro.util.config import GRAPHENE
from repro.util.errors import ConfigurationError
from repro.util.units import MB

BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "baseline.json"
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
        first = run_synthetic_cell("qcow2-disk-blcr", 2, 2 * MB, spec=SMALL, include_restart=False)
        second = run_synthetic_cell("qcow2-disk-blcr", 2, 2 * MB, spec=SMALL, include_restart=False)
        assert first["checkpoint_time"] == second["checkpoint_time"]
        assert first["snapshot_bytes_per_instance"] == second["snapshot_bytes_per_instance"]

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
        result = get_scenario("fig2").merge([execute_cell(cell) for cell in subset])
        assert result.rows == [
            {
                "buffer_MB": 2,
                "processes": 4,
                "BlobCR-app": result.rows[0]["BlobCR-app"],
            }
        ]
        assert result.rows[0]["BlobCR-app"] > 0


_DELETE = object()


def _break(document, path, value):
    """A deep copy of ``document`` with ``path`` set to ``value`` (or ``_DELETE``d)."""
    broken = copy.deepcopy(document)
    holder = broken
    for step in path[:-1]:
        holder = holder[step]
    if value is _DELETE:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    return broken


class TestArtifact:
    def test_round_trip(self, tmp_path, fig7_report, fig7_artifact):
        path = tmp_path / "artifact.json"
        write_artifact(str(path), fig7_artifact)
        loaded = load_artifact(str(path))
        assert loaded == validate_artifact(loaded)
        assert loaded["host"]["workers"] == 1
        assert loaded["run"]["cells"] == 3
        assert [c["key"] for c in loaded["cells"]] == ["fig7:off", "fig7:dedup", "fig7:zlib"]
        assert loaded["experiments"]["fig7"]["rows"] == fig7_report.results[0].rows
        assert set(loaded["host"]["cell_wall_time_s"]) == {"fig7:off", "fig7:dedup", "fig7:zlib"}
        assert all(wall >= 0 for wall in loaded["host"]["cell_wall_time_s"].values())
        assert loaded["host"]["experiment_wall_time_s"]["fig7"] >= 0

    def test_body_only_document_has_no_host_and_is_repeatable(self, fig7_report):
        body = build_artifact(fig7_report, argv=["ignored"], host=False)
        assert "host" not in validate_artifact(body)
        again = ParallelRunner(workers=1).run(["fig7"], RunConfig())
        assert build_artifact(again, host=False) == body

    def test_counters_ride_in_every_cell_and_fold_into_the_aggregate(self, fig7_artifact):
        per_cell = [cell["counters"] for cell in fig7_artifact["cells"]]
        assert all(counters["events_popped"] > 0 for counters in per_cell)
        assert fig7_artifact["counters"]["aggregate"] == aggregate_counters(per_cell)

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
        del missing["counters"]
        with pytest.raises(ArtifactError, match="counters"):
            validate_artifact(missing)

    def test_load_rejects_missing_or_invalid_files(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            load_artifact(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_artifact(str(bad))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("schema",), "blobcr-repro/bench-artifact", "not a blobcr-repro/artifact"),
            (("schema",), "blobcr-repro/trace-artifact", "not a blobcr-repro/artifact"),
            (("schema_version",), 1, "schema_version 1"),
            (("schema_version",), 3, "schema_version 3"),
            (("schema_version",), "2", "schema_version '2'"),
            (("schema_version",), _DELETE, "schema_version None"),
            (("run",), _DELETE, "missing the 'run' section"),
            (("run",), [], "'run' must be a dict"),
            (("cells",), _DELETE, "missing the 'cells' section"),
            (("cells",), {}, "'cells' must be a list"),
            (("counters",), _DELETE, "missing the 'counters' section"),
            (("counters",), [], "'counters' must be a dict"),
            (("counters", "aggregate"), _DELETE, "counters.aggregate"),
            (("experiments",), _DELETE, "missing the 'experiments' section"),
            (("experiments",), [], "'experiments' must be a dict"),
            (("experiments", "fig7"), [], "experiment 'fig7' must be an object"),
            (("experiments", "fig7", "rows"), _DELETE, "experiment 'fig7' rows"),
            (("experiments", "fig7", "rows"), {}, "experiment 'fig7' rows"),
            (("cells", 0), "fig7:off", "cell must be an object"),
            (("cells", 0, "key"), _DELETE, "missing 'key'"),
            (("cells", 1, "experiment"), _DELETE, "missing 'experiment': fig7:dedup"),
            (("cells", 1, "sim_time_s"), _DELETE, "missing 'sim_time_s': fig7:dedup"),
            (("cells", 1, "payload"), _DELETE, "missing 'payload': fig7:dedup"),
            (("cells", 1, "counters"), _DELETE, "missing 'counters': fig7:dedup"),
            (("cells", 1, "counters"), [], "'fig7:dedup' counters must be an object"),
            (
                ("cells", 2, "counters", "bw_settles"),
                1.5,
                "'fig7:zlib' counter 'bw_settles' must be an integer",
            ),
            (("host",), [], "'host' must be a dict"),
            (("host", "wall_time_s"), "fast", "host.wall_time_s"),
            (("host", "cell_wall_time_s"), _DELETE, "host.cell_wall_time_s"),
            (("host", "cell_wall_time_s", "fig7:zlib"), _DELETE, r"\['fig7:zlib'\]"),
            (("host", "experiment_wall_time_s", "fig7"), None, r"\['fig7'\]"),
            (("cells", 0, "key"), ["fig7", "off"], r"cells\[0\]\.key must be a string"),
        ],
    )
    def test_one_validator_names_the_offending_part(self, fig7_artifact, path, value, message):
        with pytest.raises(ArtifactError, match=message):
            validate_artifact(_break(fig7_artifact, path, value))


#: a small valid document: one traced and one untraced cell, and a host
_SMALL_ARTIFACT = {
    "schema": "blobcr-repro/artifact",
    "schema_version": 2,
    "run": {"experiments": ["fig7"], "cells": 2},
    "cells": [
        {
            "key": "fig7:off",
            "experiment": "fig7",
            "sim_time_s": 1.0,
            "payload": {"sim_time_s": 1.0},
            "counters": {"events_popped": 3, "bw_settles": 1},
            "trace": {
                "groups": ["run", "cloud[4+2 nodes]"],
                "spans": [{"name": "ckpt", "track": "vm-000", "group": 1, "t0_s": 0.0}],
                "instants": [],
                "counters": [],
                "histograms": {},
            },
            "rollups": {},
        },
        {
            "key": "fig7:zlib",
            "experiment": "fig7",
            "sim_time_s": 2.0,
            "payload": {"sim_time_s": 2.0},
            "counters": {"events_popped": 4},
        },
    ],
    "counters": {"aggregate": {"events_popped": 7, "bw_settles": 1}},
    "experiments": {"fig7": {"description": "", "rows": [{"dedup": "off"}]}},
    "host": {
        "wall_time_s": 1.5,
        "cell_wall_time_s": {"fig7:off": 0.5, "fig7:zlib": 1.0},
        "experiment_wall_time_s": {"fig7": 1.5},
    },
}


def _paths(node, prefix=()):
    """Every path into ``node`` below its root, depth first."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for step, child in children:
        yield prefix + (step,)
        yield from _paths(child, prefix + (step,))


def _keys(value):
    """Every object key inside a JSON value."""
    if isinstance(value, dict):
        for key, child in value.items():
            yield key
            yield from _keys(child)
    elif isinstance(value, list):
        for child in value:
            yield from _keys(child)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=6,
)


class TestArtifactProperty:
    def test_the_small_document_is_valid(self):
        assert validate_artifact(copy.deepcopy(_SMALL_ARTIFACT)) == _SMALL_ARTIFACT

    @settings(max_examples=200, deadline=None)
    @given(path=st.sampled_from(list(_paths(_SMALL_ARTIFACT))), data=st.data())
    def test_a_mutation_loads_or_an_artifact_error_names_its_key(self, path, data):
        deletable = isinstance(path[-1], str)
        value = data.draw(st.just(_DELETE) | _JSON_VALUES if deletable else _JSON_VALUES)
        try:
            validate_artifact(_break(_SMALL_ARTIFACT, path, value))
        except ArtifactError as exc:
            # the offending key is on the path, or one the mutation brought in
            named = [step for step in path if isinstance(step, str)]
            named += [repr(key) for key in _keys(value)]
            assert any(key in str(exc) for key in named), (path, value, str(exc))


class TestRegressionGate:
    def test_identical_artifacts_pass(self, fig7_artifact):
        report = check_determinism(fig7_artifact, fig7_artifact)
        assert report.ok, report.failures

    def test_determinism_gate(self, fig7_artifact):
        assert check_determinism(fig7_artifact, fig7_artifact).ok
        mutated = copy.deepcopy(fig7_artifact)
        mutated["experiments"]["fig7"]["rows"][0]["off time_s"] += 1.0
        report = check_determinism(fig7_artifact, mutated)
        assert not report.ok
        assert "fig7" in report.failures[0]

    def test_host_values_are_not_compared(self, fig7_artifact):
        other = copy.deepcopy(fig7_artifact)
        other["host"].update(workers=4, wall_time_s=1e9, python="0.0", argv=["elsewhere"])
        other["host"]["cell_wall_time_s"] = {
            key: wall * 50 for key, wall in other["host"]["cell_wall_time_s"].items()
        }
        assert check_determinism(fig7_artifact, other).ok
        del other["host"]
        assert check_determinism(fig7_artifact, other).ok

    def test_new_experiments_need_an_explicit_baseline(self, fig7_artifact):
        """Coverage is explicit in both directions: an experiment recorded
        without a committed baseline fails, and so does one the baseline has
        and the artifact dropped (at the parent the determinism gate compared
        only experiments present on *both* sides, so that passed)."""
        extended = copy.deepcopy(fig7_artifact)
        extended["experiments"]["ft"] = {"description": "", "rows": []}
        for first, second in ((fig7_artifact, extended), (extended, fig7_artifact)):
            report = check_determinism(first, second)
            assert not report.ok
            assert any("experiment 'ft' is present in only one" in f for f in report.failures)

    def test_missing_cell_fails(self, fig7_artifact):
        dropped = copy.deepcopy(fig7_artifact)
        del dropped["cells"][1]
        for first, second in ((fig7_artifact, dropped), (dropped, fig7_artifact)):
            report = check_determinism(first, second)
            assert not report.ok
            assert "fig7:dedup" in report.failures[0]

    def test_changed_counter_fails_naming_cell_and_counter(self, fig7_artifact):
        counters = fig7_artifact["cells"][2]["counters"]
        changed = _break(
            fig7_artifact, ("cells", 2, "counters", "bw_settles"), counters["bw_settles"] + 1
        )
        report = check_determinism(fig7_artifact, changed)
        assert not report.ok
        assert "fig7:zlib" in report.failures[0] and "bw_settles" in report.failures[0]

    def test_changed_payload_fails_naming_the_cell(self, fig7_artifact):
        changed = _break(fig7_artifact, ("cells", 0, "payload", "sim_time_s"), -1.0)
        report = check_determinism(fig7_artifact, changed)
        assert not report.ok
        assert "fig7:off" in report.failures[0] and "payload" in report.failures[0]

    def test_speedup_gate(self, fig7_artifact):
        fast = copy.deepcopy(fig7_artifact)
        fast["host"]["wall_time_s"] = fig7_artifact["host"]["wall_time_s"] / 2
        fast["host"]["cpu_count"] = 4
        assert speedup(fig7_artifact, fast) == pytest.approx(2.0)
        assert check_speedup(fig7_artifact, fast, min_speedup=1.5).ok
        assert not check_speedup(fig7_artifact, fast, min_speedup=2.5).ok

    def test_speedup_gate_skips_on_single_core(self, fig7_artifact):
        slow = copy.deepcopy(fig7_artifact)
        slow["host"]["wall_time_s"] = fig7_artifact["host"]["wall_time_s"] * 2
        slow["host"]["cpu_count"] = 1
        report = check_speedup(fig7_artifact, slow, min_speedup=1.05)
        assert report.ok
        assert any("skipped" in line for line in report.lines)


class TestCellScopedCounters:
    """``execute_cell`` reads each cell's counters off the clouds it built and
    folds them into the process total -- which is what
    ``perfbench/worker.py`` reads after ``run_scenario``."""

    def test_cumulative_block_is_the_fold_of_the_per_cell_blocks(self):
        per_cell = []
        before = counters_snapshot().as_dict()
        Session().run_scenario(
            "fig7",
            cells=["fig7:off", "fig7:zlib"],
            progress=lambda done, total, result: per_cell.append(result.counters),
        )
        after = counters_snapshot().as_dict()
        assert len(per_cell) == 2 and per_cell[0] != per_cell[1]
        fold = aggregate_counters(per_cell)
        for name in ("events_popped", "bw_flows_started", "bw_settles", "bw_allocations"):
            assert fold[name] > 0
            assert after[name] - before[name] == fold[name]

    def test_a_larger_watermark_from_before_the_cell_survives_it(self, monkeypatch):
        monkeypatch.setattr(instrumentation._FINISHED_CELLS, "bw_max_component_flows", 10**6)
        seen = []
        Session().run_scenario(
            "fig7",
            cells=["fig7:off"],
            progress=lambda done, total, result: seen.append(result.counters),
        )
        assert 0 < seen[0]["bw_max_component_flows"] < 10**6
        assert counters_snapshot().bw_max_component_flows == 10**6

    def test_work_outside_a_cell_is_not_a_cells(self):
        before = counters_snapshot()
        _transfer_cell([])
        assert counters_snapshot() == before


def _transfer_cell(refs):
    """A test cell: one small cloud, a few transfers (one of zero bytes).

    ``refs`` receives weak references to the cloud and to its environment,
    which the bandwidth system's end-of-instant hook holds in a cycle.
    """
    cloud = Cloud(SMALL)
    refs.extend((weakref.ref(cloud), weakref.ref(cloud.env)))
    src, dst = cloud.compute_nodes[0].name, cloud.compute_nodes[1].name
    for nbytes in (2 * MB, 0, 1 * MB):
        cloud.run(cloud.remote_write(src, dst, nbytes))
    return {"sim_time_s": cloud.now}


def _raising_cell():
    raise RuntimeError("cell failed")


class TestCellScopedCollector:
    """``execute_cell`` runs ``cell.func`` with the cyclic collector paused and
    frees the cell's graph with one young-generation collection of its own,
    leaving the caller's collector state as it found it."""

    def test_the_callers_collector_state_is_restored(self):
        cell = Cell("test", ("transfers",), _transfer_cell, {"refs": []})
        assert gc.isenabled()
        execute_cell(cell)
        assert gc.isenabled()
        gc.disable()
        try:
            execute_cell(cell)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_raising_cell_leaves_the_collector_enabled(self):
        with pytest.raises(RuntimeError, match="cell failed"):
            execute_cell(Cell("test", ("raises",), _raising_cell))
        assert gc.isenabled()

    def test_the_cells_graph_is_freed_before_execute_cell_returns(self):
        refs = []
        execute_cell(Cell("test", ("transfers",), _transfer_cell, {"refs": refs}))
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]

    def test_a_traced_cells_tracers_do_not_outlive_it(self):
        def tracers():
            return sum(isinstance(obj, Tracer) for obj in gc.get_objects())

        before = tracers()
        result = execute_cell(Cell("test", ("transfers",), _transfer_cell, {"refs": []}), True)
        assert result.trace["groups"] == ["run", "cloud[6+3 nodes]"]
        assert tracers() == before

    def test_one_young_collection_per_cell(self):
        cell = Cell("test", ("transfers",), _transfer_cell, {"refs": []})
        started = []

        def on_gc(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect(0)  # an empty young generation: no automatic pass can start before the cell
        gc.callbacks.append(on_gc)
        try:
            for _ in range(3):
                execute_cell(cell)
        finally:
            gc.callbacks.remove(on_gc)
        assert started == [0, 0, 0]


@functools.lru_cache(maxsize=None)
def _baseline():
    return load_artifact(str(BASELINE))


def _smallest_cells():
    """The cell with the least recorded wall time of every registered scenario."""
    walls = _baseline()["host"]["cell_wall_time_s"]
    cells = []
    for name in load_all():
        enumerated = get_scenario(name).enumerate_cells(RunConfig())
        cells.append(min(enumerated, key=lambda cell: walls[cell.key]))
    return cells


def _baseline_cells(experiment):
    """The baseline's executed cells of one experiment, in canonical order."""
    return [
        CellResult(
            key=record["key"],
            experiment=record["experiment"],
            parts=tuple(record["key"].split(":")[1:]),
            payload=record["payload"],
            wall_time_s=0.0,
            sim_time_s=record["sim_time_s"],
            counters=record["counters"],
        )
        for record in _baseline()["cells"]
        if record["experiment"] == experiment
    ]


class TestBaselineBytes:
    """The baseline gate compares parsed JSON, which ignores key order; artifact
    bytes and the column order of a table do not.  Held here byte for byte."""

    @pytest.mark.parametrize("name", CANONICAL)
    def test_merging_the_baseline_payloads_gives_its_rows(self, name):
        load_all()
        rows = get_scenario(name).merge(_baseline_cells(name)).rows
        expected = _baseline()["experiments"][name]["rows"]
        assert json.dumps(rows) == json.dumps(expected)

    @pytest.mark.parametrize("cell", _smallest_cells(), ids=lambda cell: cell.key)
    def test_the_smallest_cell_serializes_as_in_the_baseline(self, cell):
        (recorded,) = [c for c in _baseline_cells(cell.experiment) if c.key == cell.key]
        assert json.dumps(execute_cell(cell).payload) == json.dumps(recorded.payload)


class TestNoCyclicGarbage:
    """A running cell makes no cyclic garbage: pausing the collector for a
    whole cell cannot let memory pile up.  Checked with the collector running
    often, on the smallest cell of every scenario."""

    @pytest.mark.parametrize("cell", _smallest_cells(), ids=lambda cell: cell.key)
    def test_a_running_cell_makes_no_cyclic_garbage(self, cell):
        collected = []

        def on_gc(phase, info):
            if phase == "stop":
                collected.append(info["collected"])

        threshold = gc.get_threshold()
        gc.collect()
        gc.set_threshold(100)
        gc.callbacks.append(on_gc)
        try:
            cell.func(**cell.params)
        finally:
            gc.callbacks.remove(on_gc)
            gc.set_threshold(*threshold)
        assert collected, "the collector never ran inside the cell"
        assert sum(collected) == 0


def _stored_bytes(provider):
    """What the runs in a provider's table say it holds, in stored bytes."""
    total = 0
    me = provider.provider_id
    for run in provider._runs.values():
        for index, placement in enumerate(run.placements):
            if me in placement and (index, me) not in (run.dropped or ()):
                total += run.span_bytes(index, 1) if run.stored_size is None else run.stored_size
    return total


#: per scenario, the one invariant its cells may legitimately break: the
#: label prefix of the flows a cell leaves in flight, and why it may
IN_FLIGHT = {
    "contention": (
        "tenant:",
        "the cell ends with its checkpoint, while each background tenant's "
        "last chunk is still crossing the fabric",
    ),
}


class TestCellsEndQuiescent:
    """Every cloud a cell builds, checked from outside once the cell is done:
    nothing still moves on its network, and every live provider's usage is
    what its run table holds."""

    @pytest.mark.parametrize("cell", _smallest_cells(), ids=lambda cell: cell.key)
    def test_the_smallest_cell_of_every_scenario(self, cell, monkeypatch):
        repositories = []
        build = CheckpointRepository.__init__

        def spy(self, *args, **kwargs):
            build(self, *args, **kwargs)
            repositories.append(self)

        monkeypatch.setattr(CheckpointRepository, "__init__", spy)
        with clouds() as registered:
            cell.func(**cell.params)
        assert registered
        prefix, _why = IN_FLIGHT.get(cell.experiment, (None, ""))
        for cloud in registered:
            bandwidth = cloud.network.bandwidth
            if prefix is None:
                assert bandwidth.active_flows == 0
                assert bandwidth._heap == []
            else:
                assert all(flow.label.startswith(prefix) for flow in bandwidth._flows)
        for repository in repositories:
            assert repository.cloud in registered
            for provider in repository.client.providers._providers.values():
                if provider.alive:
                    assert provider.used_bytes == _stored_bytes(provider), provider
