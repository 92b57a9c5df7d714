"""Tests for the sim-time tracing subsystem (``repro.obs``).

Covers the tracer itself, the Chrome trace-event export, span rollups, the
artifact validator on traced cells, counter aggregation (MAX_FIELDS vs.
additive), the progress meter, and the two determinism contracts:

* the same cell traced twice -- or over two workers -- produces a
  byte-identical artifact, and
* tracing disabled leaves experiment rows byte-identical to an untraced run.
"""

import ast
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster.cloud import Cloud, clouds
from repro.core import BlobCRDeployment
from repro.obs import (
    HISTOGRAM_QUANTILES,
    Tracer,
    chrome_trace,
    exact_quantile,
    format_rollups,
    merge_rollups,
    merge_traces,
    span_rollups,
)
from repro.runner import (
    ArtifactError,
    ProgressMeter,
    RunConfig,
    load_all,
    load_artifact,
    validate_artifact,
)
from repro.runner.cells import execute_cell
from repro.scenarios import get_scenario
from repro.sim import Environment, Interrupt
from repro.sim.instrumentation import MAX_FIELDS, SimCounters, aggregate_counters
from repro.util import SyntheticBytes
from repro.util.config import GRAPHENE
from repro.util.units import MB

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

SMALL = GRAPHENE.scaled(compute_nodes=4, service_nodes=2)


class TestExactQuantile:
    def test_nearest_rank_is_exact(self):
        values = sorted(float(v) for v in range(1, 101))
        assert exact_quantile(values, 0.50) == 50.0
        assert exact_quantile(values, 0.90) == 90.0
        assert exact_quantile(values, 0.99) == 99.0
        assert exact_quantile(values, 1.0) == 100.0

    def test_single_value(self):
        for q in HISTOGRAM_QUANTILES:
            assert exact_quantile([7.0], q) == 7.0

    def test_result_is_always_a_recorded_value(self):
        values = [1.0, 2.0, 1000.0]
        for q in HISTOGRAM_QUANTILES:
            assert exact_quantile(values, q) in values

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exact_quantile([], 0.5)


class TestTracer:
    def test_disabled_by_default_and_write_only(self):
        assert Cloud(SMALL).env.tracer is None
        assert merge_traces([Tracer()]) == {
            "groups": ["run"],
            "spans": [],
            "instants": [],
            "counters": [],
            "histograms": {},
        }

    def test_begin_end_records_span(self):
        tracer = Tracer()
        handle = tracer.begin("ckpt", "vm-000", 1.0, cat="phase", args={"n": 1})
        tracer.end(handle, 3.5, args={"bytes": 42})
        (span,) = merge_traces([tracer])["spans"]
        assert span["name"] == "ckpt"
        assert span["track"] == "vm-000"
        assert span["t0_s"] == 1.0
        assert span["t1_s"] == 3.5
        assert span["args"] == {"n": 1, "bytes": 42}

    def test_open_span_collects_with_null_end(self):
        tracer = Tracer()
        tracer.begin("deploy", "vm-001", 0.5)
        (span,) = merge_traces([tracer])["spans"]
        assert span["t1_s"] is None

    def test_instants_and_gauges(self):
        tracer = Tracer()
        tracer.instant("failure", "node-003", 12.0, cat="failure")
        tracer.gauge("queue", "disk", 1.0, 2)
        tracer.gauge("queue", "disk", 2.0, 0)
        trace = merge_traces([tracer])
        (inst,) = trace["instants"]
        assert (inst["name"], inst["track"], inst["t_s"]) == ("failure", "node-003", 12.0)
        (series,) = trace["counters"]
        assert series["name"] == "queue"
        assert series["points"] == [[1.0, 2], [2.0, 0]]

    def test_histogram_summary_has_exact_quantiles(self):
        tracer = Tracer()
        for value in (3.0, 1.0, 2.0, 4.0):
            tracer.observe("flow.bytes", value)
        summary = merge_traces([tracer])["histograms"]["flow.bytes"]
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] == 2.0
        assert summary["p999"] == 4.0

    def test_groups_partition_the_trace(self):
        first, second = Tracer(), Tracer("cloud[4+2 nodes]")
        second.begin("b", "t", 1.0)
        first.begin("a", "t", 0.0)
        second.observe("flow.bytes", 2.0)
        first.observe("flow.bytes", 1.0)
        trace = merge_traces([first, second])
        assert trace["groups"] == ["run", "cloud[4+2 nodes]"]
        assert [(span["name"], span["group"]) for span in trace["spans"]] == [("a", 0), ("b", 1)]
        assert trace["histograms"]["flow.bytes"]["count"] == 2

    def test_a_traced_clouds_scope_gives_each_cloud_its_own_tracer(self):
        with clouds() as untraced:
            Cloud(SMALL)
        assert untraced[0].env.tracer is None
        with clouds(trace=True) as traced:
            first, second = Cloud(SMALL), Cloud(SMALL)
        assert first.env.tracer.label == "cloud[4+2 nodes]"
        assert first.env.tracer is not second.env.tracer
        assert traced == [first, second]

    def test_scopes_nest_and_register_nothing_outside(self):
        with clouds(trace=True) as outer:
            with clouds() as inner:
                built_inner = Cloud(SMALL)
            built_outer = Cloud(SMALL)
        Cloud(SMALL)
        assert inner == [built_inner] and built_inner.env.tracer is None
        assert outer == [built_outer] and built_outer.env.tracer is not None


def _phases(tracer):
    """The ``env.phase`` spans of a trace (process spans left out)."""
    return [span for span in merge_traces([tracer])["spans"] if span["cat"] == "phase"]


class TestPhase:
    """``Environment.phase``: the one way the model traces a phase."""

    def test_a_traced_phase_records_one_span_with_its_noted_arguments_last(self):
        env = Environment(Tracer())

        def body():
            yield env.timeout(1.0)
            with env.phase("commit", "node-001", blob_id=3, version=2) as phase:
                yield env.timeout(2.5)
                phase.note(bytes=42)
                phase.note(ok=True)

        env.run(env.process(body()))
        (span,) = _phases(env.tracer)
        assert (span["name"], span["track"]) == ("commit", "node-001")
        assert (span["t0_s"], span["t1_s"]) == (1.0, 3.5)
        assert list(span["args"].items()) == [
            ("blob_id", 3), ("version", 2), ("bytes", 42), ("ok", True)
        ]

    def test_a_phase_without_arguments_records_none(self):
        env = Environment(Tracer())
        with env.phase("vm-suspend", "vm-000"):
            pass
        (span,) = _phases(env.tracer)
        assert "args" not in span and span["t1_s"] == 0.0

    def test_a_body_that_raises_leaves_the_span_open(self):
        env = Environment(Tracer())

        def body():
            with env.phase("blob-write", "node-000", bytes=1) as phase:
                yield env.timeout(1.0)
                phase.note(never=True)
                raise RuntimeError("lost the provider")

        process = env.process(body())
        with pytest.raises(RuntimeError):
            env.run(process)
        (span,) = _phases(env.tracer)
        assert span["t1_s"] is None
        assert span["args"] == {"bytes": 1}

    def test_an_interrupt_thrown_into_the_process_leaves_the_span_open(self):
        env = Environment(Tracer())

        def victim():
            try:
                with env.phase("fault-in", "vm-000"):
                    yield env.timeout(10.0)
            except Interrupt:
                with env.phase("rollback", "vm-000"):
                    yield env.timeout(1.0)

        def injector(target):
            yield env.timeout(2.0)
            target.interrupt("node failure")

        process = env.process(victim())
        env.process(injector(process))
        env.run()
        fault_in, rollback = _phases(env.tracer)
        assert (fault_in["name"], fault_in["t0_s"], fault_in["t1_s"]) == ("fault-in", 0.0, None)
        assert (rollback["t0_s"], rollback["t1_s"]) == (2.0, 3.0)

    def test_nested_phases_close_inner_first(self):
        env = Environment(Tracer())
        seen = {}

        def body():
            with env.phase("commit", "node-000"):
                yield env.timeout(1.0)
                with env.phase("blob-write", "node-000"):
                    yield env.timeout(2.0)
                seen["after_inner"] = [span["t1_s"] for span in _phases(env.tracer)]
                yield env.timeout(0.5)

        env.run(env.process(body()))
        assert seen["after_inner"] == [None, 3.0]
        outer, inner = _phases(env.tracer)
        assert (outer["name"], outer["t0_s"], outer["t1_s"]) == ("commit", 0.0, 3.5)
        assert (inner["name"], inner["t0_s"], inner["t1_s"]) == ("blob-write", 1.0, 3.0)

    def test_an_untraced_environment_returns_one_shared_inert_object(self):
        env = Environment()
        first = env.phase("commit", "node-000", blob_id=1)
        assert first is env.phase("vm-resume", "vm-001") is Environment().phase("x", "y")
        with first as phase:
            assert phase is first
            phase.note(bytes=42)
        assert env.tracer is None
        assert not hasattr(first, "__dict__") and type(first).__slots__ == ()

    def test_a_checkpoint_image_download_traces_its_blob_read(self):
        with clouds(trace=True):
            cloud = Cloud(GRAPHENE.scaled(compute_nodes=6, service_nodes=3))
        deployment = BlobCRDeployment(cloud)
        out = {}

        def scenario():
            yield from deployment.deploy(1, processes_per_instance=1)
            instance = deployment.instances[0]
            yield from deployment.guest_write_and_sync(
                instance, "/ckpt/x.dat", SyntheticBytes("x", MB)
            )
            checkpoint = yield from deployment.checkpoint_all()
            record = checkpoint.records[instance.instance_id]
            out["ref"] = record.snapshot_ref
            out["t0"] = cloud.now
            image = yield from deployment.download_checkpoint_image("node-005", record)
            out["t1"], out["size"] = cloud.now, image.size

        cloud.run(cloud.process(scenario()))
        (span,) = [s for s in _phases(cloud.env.tracer) if s["name"] == "blob-read"]
        blob_id, _version = out["ref"]
        assert span["track"] == "node-005"
        assert out["t0"] < out["t1"]
        assert (span["t0_s"], span["t1_s"]) == (out["t0"], out["t1"])
        assert span["args"] == {"blob_id": blob_id, "bytes": out["size"]}

    def test_only_the_kernel_opens_and_closes_spans(self):
        """Every module but ``sim/core.py`` traces a phase through ``env.phase``.

        A ``.begin(...)`` or ``.end(...)`` call anywhere else is a tracer
        span handled by hand: the guard, the handle and the close on the
        normal path all have to be copied, and a copy that closes a span on
        the error path changes the trace.
        """
        calls = []
        for path in sorted(SRC.rglob("*.py")):
            module = path.relative_to(SRC).as_posix()
            if module == "sim/core.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("begin", "end")
                ):
                    calls.append(f"{module}:{node.lineno} .{node.func.attr}(")
        assert calls == []


class TestChromeExport:
    @staticmethod
    def _cell(trace):
        return {"key": "fig2:BlobCR-app:4", "experiment": "fig2", "trace": trace}

    def test_span_becomes_complete_event_in_microseconds(self):
        tracer = Tracer()
        handle = tracer.begin("ckpt", "vm-000", 1.5)
        tracer.end(handle, 2.0)
        doc = chrome_trace([self._cell(merge_traces([tracer]))])
        events = {event["ph"]: event for event in doc["traceEvents"]}
        assert doc["displayTimeUnit"] == "ms"
        span = events["X"]
        assert span["ts"] == 1_500_000
        assert span["dur"] == 500_000
        assert events["M"]  # process/thread metadata present

    def test_open_span_becomes_begin_event(self):
        tracer = Tracer()
        tracer.begin("deploy", "vm-000", 0.0)
        phs = [e["ph"] for e in chrome_trace([self._cell(merge_traces([tracer]))])["traceEvents"]]
        assert "B" in phs and "X" not in phs

    def test_instants_and_counters(self):
        tracer = Tracer()
        tracer.instant("failure", "node-000", 3.0, cat="failure")
        tracer.gauge("utilization", "channel-0", 1.0, 0.5)
        events = chrome_trace([self._cell(merge_traces([tracer]))])["traceEvents"]
        (inst,) = [e for e in events if e["ph"] == "i"]
        assert inst["s"] == "t"
        assert inst["ts"] == 3_000_000
        (counter,) = [e for e in events if e["ph"] == "C"]
        assert counter["name"] == "channel-0:utilization"
        assert counter["args"] == {"utilization": 0.5}

    def test_groups_get_distinct_pids_with_names(self):
        first, second = Tracer(), Tracer("cloud-b")
        first.begin("a", "t", 0.0)
        second.begin("b", "t", 0.0)
        events = chrome_trace([self._cell(merge_traces([first, second]))])["traceEvents"]
        names = [e for e in events if e["name"] == "process_name"]
        assert [e["args"]["name"] for e in names] == [
            "fig2:BlobCR-app:4 · run",
            "fig2:BlobCR-app:4 · cloud-b",
        ]
        spans = [e for e in events if e["ph"] in ("X", "B")]
        assert spans[0]["pid"] != spans[1]["pid"]

    def test_tracks_get_stable_tids_per_process(self):
        tracer = Tracer()
        tracer.end(tracer.begin("a", "vm-000", 0.0), 1.0)
        tracer.end(tracer.begin("b", "vm-001", 0.0), 1.0)
        tracer.end(tracer.begin("c", "vm-000", 2.0), 3.0)
        events = chrome_trace([self._cell(merge_traces([tracer]))])["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert spans[0]["tid"] == spans[2]["tid"]  # same track, same tid
        assert spans[0]["tid"] != spans[1]["tid"]


class TestRollups:
    def test_only_closed_spans_counted_and_sorted_by_total(self):
        tracer = Tracer()
        tracer.end(tracer.begin("short", "t", 0.0), 1.0)
        tracer.end(tracer.begin("long", "t", 0.0), 5.0)
        tracer.end(tracer.begin("long", "t", 5.0), 7.0)
        tracer.begin("open", "t", 0.0)
        rollups = span_rollups(merge_traces([tracer]))
        assert list(rollups) == ["long", "short"]
        assert rollups["long"] == {"count": 2, "total_sim_s": 7.0, "max_sim_s": 5.0}

    def test_merge_folds_counts_totals_and_max(self):
        one = {"a": {"count": 1, "total_sim_s": 2.0, "max_sim_s": 2.0}}
        two = {
            "a": {"count": 2, "total_sim_s": 1.0, "max_sim_s": 0.6},
            "b": {"count": 1, "total_sim_s": 9.0, "max_sim_s": 9.0},
        }
        merged = merge_rollups([one, two])
        assert list(merged) == ["b", "a"]
        assert merged["a"] == {"count": 3, "total_sim_s": 3.0, "max_sim_s": 2.0}

    def test_format_rollups_table(self):
        text = format_rollups({"ckpt": {"count": 2, "total_sim_s": 3.5, "max_sim_s": 2.0}})
        assert "span" in text and "ckpt" in text and "3.500" in text
        assert "(no closed spans recorded)" in format_rollups({})


class TestTraceArtifactValidation:
    """The one artifact validator, fed documents with a traced cell."""

    @staticmethod
    def _document(**cell_overrides):
        trace = {
            "groups": ["run"],
            "spans": [],
            "instants": [],
            "counters": [],
            "histograms": {},
        }
        cell = {
            "key": "fig7:off",
            "experiment": "fig7",
            "sim_time_s": 1.0,
            "payload": {"sim_time_s": 1.0},
            "counters": {"events_popped": 3},
            "trace": trace,
            "rollups": {},
        }
        cell.update(cell_overrides)
        return {
            "schema": "blobcr-repro/artifact",
            "schema_version": 2,
            "run": {"experiments": ["fig7"], "cells": 1},
            "cells": [cell],
            "counters": {"aggregate": {"events_popped": 3}},
            "experiments": {"fig7": {"description": "", "rows": []}},
        }

    def test_valid_document_passes(self):
        document = self._document()
        assert validate_artifact(document) is document

    def test_wrong_schema_rejected(self):
        document = self._document()
        document["schema"] = "blobcr-repro/trace-artifact"
        with pytest.raises(ArtifactError, match="not a blobcr-repro/artifact"):
            validate_artifact(document)

    @pytest.mark.parametrize("version", [0, 1, 3, "2", None])
    def test_unknown_version_rejected(self, version):
        document = self._document()
        document["schema_version"] = version
        with pytest.raises(ArtifactError, match="schema_version"):
            validate_artifact(document)

    @pytest.mark.parametrize("section", ["run", "cells", "counters", "experiments"])
    def test_missing_section_rejected(self, section):
        document = self._document()
        del document[section]
        with pytest.raises(ArtifactError, match=section):
            validate_artifact(document)

    def test_cell_missing_trace_rejected(self):
        document = self._document()
        del document["cells"][0]["trace"]
        with pytest.raises(ArtifactError, match="'trace'"):
            validate_artifact(document)

    def test_cell_missing_rollups_rejected(self):
        document = self._document()
        del document["cells"][0]["rollups"]
        with pytest.raises(ArtifactError, match="'rollups'"):
            validate_artifact(document)

    def test_trace_missing_spans_rejected(self):
        document = self._document()
        del document["cells"][0]["trace"]["spans"]
        with pytest.raises(ArtifactError, match="trace.spans"):
            validate_artifact(document)

    def test_malformed_span_rejected(self):
        document = self._document()
        document["cells"][0]["trace"]["spans"].append({"name": "ckpt"})  # no t0_s
        with pytest.raises(ArtifactError, match="malformed span"):
            validate_artifact(document)

    def test_not_an_object_rejected(self):
        with pytest.raises(ArtifactError, match="JSON object"):
            validate_artifact([1, 2, 3])

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_artifact(str(path))


class TestAggregateCounters:
    def test_additive_fields_sum(self):
        a = SimCounters(events_popped=10, bw_settles=2).as_dict()
        b = SimCounters(events_popped=5, bw_settles=1).as_dict()
        total = aggregate_counters([a, b])
        assert total["events_popped"] == 15
        assert total["bw_settles"] == 3

    def test_max_fields_take_maximum(self):
        assert "bw_max_component_flows" in MAX_FIELDS
        a = SimCounters(bw_max_component_flows=24).as_dict()
        b = SimCounters(bw_max_component_flows=8).as_dict()
        assert aggregate_counters([a, b])["bw_max_component_flows"] == 24

    def test_max_fields_derived_from_field_metadata(self):
        from dataclasses import fields

        declared = {
            spec.name
            for spec in fields(SimCounters)
            if spec.metadata.get("aggregate") == "max"
        }
        assert MAX_FIELDS == declared

    def test_unknown_keys_seed_instead_of_raising(self):
        a = {"events_popped": 1, "future_counter": 7}
        b = {"events_popped": 2, "future_counter": 5}
        total = aggregate_counters([a, b])
        assert total["future_counter"] == 12
        assert total["events_popped"] == 3

    def test_empty_input_yields_zeroed_block(self):
        from dataclasses import fields

        total = aggregate_counters([])
        assert set(total) == {spec.name for spec in fields(SimCounters)}
        assert all(value == 0 for value in total.values())


class TestProgressMeter:
    class _Result:
        def __init__(self, key, wall, sim):
            self.key = key
            self.wall_time_s = wall
            self.sim_time_s = sim

    def test_reports_done_total_and_eta(self):
        stream = io.StringIO()
        meter = ProgressMeter(workers=2, stream=stream)
        meter(1, 4, self._Result("fig7:off", 2.0, 30.0))
        line = stream.getvalue()
        assert line.startswith("[1/4] fig7:off wall=2.00s sim=30.0s eta=")
        # one cell done at 2.0s wall, 3 remaining over 2 workers -> 3s
        assert meter.eta_s(3) == 3.0

    def test_last_cell_has_no_eta(self):
        stream = io.StringIO()
        meter = ProgressMeter(workers=1, stream=stream)
        meter(1, 1, self._Result("fig7:off", 1.0, 5.0))
        assert "eta=" not in stream.getvalue()

    def test_eta_formatting(self):
        assert ProgressMeter._format_eta(42.0) == "42s"
        assert ProgressMeter._format_eta(90.0) == "1.5m"
        assert ProgressMeter._format_eta(5400.0) == "1.5h"


CELL = "fig2:BlobCR-app:4:50MB"


class TestTraceDeterminism:
    def test_same_cell_twice_is_byte_identical(self, tmp_path, capsys):
        # the recorded argv is part of the document, so both runs use the
        # exact same command line (including the output paths)
        artifact = tmp_path / "artifact.json"
        chrome = tmp_path / "chrome.json"
        argv = [
            "trace",
            "--cells",
            CELL,
            "--no-progress",
            "--trace-artifact",
            str(artifact),
            "--chrome",
            str(chrome),
        ]
        assert main(argv) == 0
        first = (artifact.read_bytes(), chrome.read_bytes())
        assert main(argv) == 0
        second = (artifact.read_bytes(), chrome.read_bytes())
        capsys.readouterr()
        assert first == second

    def test_workers_do_not_change_a_byte(self, tmp_path, capsys):
        """Instrumentation is scoped where the cell runs, so a traced cell
        comes back the same from a pool worker as from this process."""
        files = []
        for workers in ("1", "2"):
            artifact = tmp_path / f"artifact-{workers}.json"
            chrome = tmp_path / f"chrome-{workers}.json"
            argv = ["trace", "mtc:8", "--no-progress", "--workers", workers]
            argv += ["--trace-artifact", str(artifact), "--chrome", str(chrome)]
            assert main(argv) == 0
            files.append((artifact.read_bytes(), chrome.read_bytes()))
        capsys.readouterr()
        assert files[0] == files[1]
        document = load_artifact(str(tmp_path / "artifact-2.json"))
        assert [cell["key"] for cell in document["cells"]] == ["mtc:8:1:fifo", "mtc:8:1:fair"]
        assert "host" not in document

    def test_artifact_is_valid_and_carries_spans(self, tmp_path, capsys):
        artifact = tmp_path / "artifact.json"
        chrome = tmp_path / "chrome.json"
        # positional selector form: `blobcr-repro trace fig2:...`
        argv = [
            "trace",
            CELL,
            "--no-progress",
            "--trace-artifact",
            str(artifact),
            "--chrome",
            str(chrome),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "traced 1 cell(s)" in out
        assert "sim-time span rollups" in out
        document = load_artifact(str(artifact))
        (cell,) = document["cells"]
        assert cell["key"] == CELL
        names = {span["name"] for span in cell["trace"]["spans"]}
        assert {"deploy", "ckpt", "vm-suspend", "vdisk-snapshot", "commit"} <= names
        assert cell["trace"]["histograms"]["flow.bytes"]["count"] > 0
        assert cell["rollups"]
        payload = json.loads((tmp_path / "chrome.json").read_text())
        phs = {event["ph"] for event in payload["traceEvents"]}
        assert "X" in phs and "M" in phs and "C" in phs

    def test_rows_identical_with_tracing_off(self, capsys):
        # default runner path never touches the tracer: rows must be
        # byte-identical to the seed behaviour
        argv = ["--cells", CELL, "--json", "-", "--no-progress"]
        assert main(argv) == 0
        untraced = capsys.readouterr().out
        with clouds(trace=True):
            pass  # a traced scope must leave the default path untouched
        assert main(argv) == 0
        assert capsys.readouterr().out == untraced

    def test_rows_identical_with_tracing_on(self):
        # write-only contract: tracing enabled cannot change any result
        load_all()
        (cell,) = [
            cell
            for cell in get_scenario("fig2").enumerate_cells(RunConfig())
            if cell.key == CELL
        ]
        untraced = execute_cell(cell)
        traced = execute_cell(cell, trace=True)
        assert untraced.trace is None and traced.trace["spans"]
        assert traced.payload == untraced.payload
        assert traced.counters == untraced.counters


class TestSessionTrace:
    def test_trace_report(self):
        from repro.api import Session, TraceReport

        report = Session().trace("fig7", cells=["fig7:off"])
        assert isinstance(report, TraceReport)
        assert report.cell_keys == ("fig7:off",)
        assert report.artifact["schema"] == "blobcr-repro/artifact"
        assert "host" not in report.artifact
        assert report.cells[0]["counters"]["events_popped"] > 0
        assert report.rollups
        assert report.chrome()["traceEvents"]

    def test_workers_do_not_change_the_artifact(self):
        from repro.api import Session

        cells = ["fig7:off", "fig7:zlib"]
        sequential = Session().trace("fig7", cells=cells)
        parallel = Session().trace("fig7", cells=cells, workers=2)
        assert parallel.cell_keys == sequential.cell_keys == tuple(cells)
        assert parallel.artifact == sequential.artifact
        assert parallel.rollups == sequential.rollups

    def test_unknown_scenario_rejected(self):
        from repro.api import Session
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Session().trace("not-a-scenario")
