"""Tests for the sim-time tracing subsystem (``repro.obs``).

Covers the tracer itself, the Chrome trace-event export, span rollups, the
artifact validator on traced cells, counter aggregation (MAX_FIELDS vs.
additive), the progress meter, and the two determinism contracts:

* the same cell traced twice -- or over two workers -- produces a
  byte-identical artifact, and
* tracing disabled leaves experiment rows byte-identical to an untraced run.
"""

import io
import json

import pytest

from repro.cli import main
from repro.obs import (
    HISTOGRAM_QUANTILES,
    TRACER,
    Tracer,
    chrome_trace,
    exact_quantile,
    format_rollups,
    merge_rollups,
    span_rollups,
    tracing,
)
from repro.runner import ArtifactError, ProgressMeter, load_artifact, validate_artifact
from repro.sim.instrumentation import MAX_FIELDS, SimCounters, aggregate_counters


@pytest.fixture(autouse=True)
def _pristine_tracer():
    """Every test starts and ends with the global tracer off and empty."""
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


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
        tracer = Tracer()
        assert not tracer.enabled
        assert tracer.span_count == 0

    def test_begin_end_records_span(self):
        tracer = Tracer()
        handle = tracer.begin("ckpt", "vm-000", 1.0, cat="phase", args={"n": 1})
        tracer.end(handle, 3.5, args={"bytes": 42})
        (span,) = tracer.collect()["spans"]
        assert span["name"] == "ckpt"
        assert span["track"] == "vm-000"
        assert span["t0_s"] == 1.0
        assert span["t1_s"] == 3.5
        assert span["args"] == {"n": 1, "bytes": 42}

    def test_open_span_collects_with_null_end(self):
        tracer = Tracer()
        tracer.begin("deploy", "vm-001", 0.5)
        (span,) = tracer.collect()["spans"]
        assert span["t1_s"] is None

    def test_instants_and_gauges(self):
        tracer = Tracer()
        tracer.instant("failure", "node-003", 12.0, cat="failure")
        tracer.gauge("queue", "disk", 1.0, 2)
        tracer.gauge("queue", "disk", 2.0, 0)
        trace = tracer.collect()
        (inst,) = trace["instants"]
        assert (inst["name"], inst["track"], inst["t_s"]) == ("failure", "node-003", 12.0)
        (series,) = trace["counters"]
        assert series["name"] == "queue"
        assert series["points"] == [[1.0, 2], [2.0, 0]]

    def test_histogram_summary_has_exact_quantiles(self):
        tracer = Tracer()
        for value in (3.0, 1.0, 2.0, 4.0):
            tracer.observe("flow.bytes", value)
        summary = tracer.collect()["histograms"]["flow.bytes"]
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] == 2.0
        assert summary["p999"] == 4.0

    def test_groups_partition_the_trace(self):
        tracer = Tracer()
        tracer.begin("a", "t", 0.0)
        group = tracer.begin_group("cloud[4+2 nodes]")
        tracer.begin("b", "t", 1.0)
        trace = tracer.collect()
        assert trace["groups"] == ["run", "cloud[4+2 nodes]"]
        assert [span["group"] for span in trace["spans"]] == [0, group]

    def test_reset_keeps_enabled_flag(self):
        tracer = Tracer()
        tracer.enable()
        tracer.begin("x", "t", 0.0)
        tracer.reset()
        assert tracer.enabled
        assert tracer.span_count == 0

    def test_tracing_context_manager(self):
        assert not TRACER.enabled
        with tracing() as tracer:
            assert tracer is TRACER
            assert TRACER.enabled
            TRACER.begin("x", "t", 0.0)
        assert not TRACER.enabled
        # data survives exit for collection, until the next reset
        assert TRACER.span_count == 1


class TestChromeExport:
    @staticmethod
    def _cell(trace):
        return {"key": "fig2:BlobCR-app:4", "experiment": "fig2", "trace": trace}

    def test_span_becomes_complete_event_in_microseconds(self):
        tracer = Tracer()
        handle = tracer.begin("ckpt", "vm-000", 1.5)
        tracer.end(handle, 2.0)
        doc = chrome_trace([self._cell(tracer.collect())])
        events = {event["ph"]: event for event in doc["traceEvents"]}
        assert doc["displayTimeUnit"] == "ms"
        span = events["X"]
        assert span["ts"] == 1_500_000
        assert span["dur"] == 500_000
        assert events["M"]  # process/thread metadata present

    def test_open_span_becomes_begin_event(self):
        tracer = Tracer()
        tracer.begin("deploy", "vm-000", 0.0)
        phs = [e["ph"] for e in chrome_trace([self._cell(tracer.collect())])["traceEvents"]]
        assert "B" in phs and "X" not in phs

    def test_instants_and_counters(self):
        tracer = Tracer()
        tracer.instant("failure", "node-000", 3.0, cat="failure")
        tracer.gauge("utilization", "channel-0", 1.0, 0.5)
        events = chrome_trace([self._cell(tracer.collect())])["traceEvents"]
        (inst,) = [e for e in events if e["ph"] == "i"]
        assert inst["s"] == "t"
        assert inst["ts"] == 3_000_000
        (counter,) = [e for e in events if e["ph"] == "C"]
        assert counter["name"] == "channel-0:utilization"
        assert counter["args"] == {"utilization": 0.5}

    def test_groups_get_distinct_pids_with_names(self):
        tracer = Tracer()
        tracer.begin("a", "t", 0.0)
        tracer.begin_group("cloud-b")
        tracer.begin("b", "t", 0.0)
        events = chrome_trace([self._cell(tracer.collect())])["traceEvents"]
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
        events = chrome_trace([self._cell(tracer.collect())])["traceEvents"]
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
        rollups = span_rollups(tracer.collect())
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
        with tracing():
            pass  # enable/disable cycle must leave the default path untouched
        assert main(argv) == 0
        assert capsys.readouterr().out == untraced

    def test_rows_identical_with_tracing_on(self, capsys):
        # write-only contract: tracing enabled cannot change any result
        argv = ["--cells", CELL, "--json", "-", "--no-progress"]
        assert main(argv) == 0
        baseline = capsys.readouterr().out
        TRACER.enable()
        try:
            assert main(argv) == 0
        finally:
            TRACER.disable()
        assert capsys.readouterr().out == baseline


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
