"""The one schema-versioned JSON document a runner invocation emits.

``run --artifact``, ``trace`` and ``Session.trace`` all write the same
envelope (:data:`SCHEMA`), in two parts:

* the **body** -- ``run`` (what was asked for: experiments, scale, overrides,
  seed), ``cells`` (per cell: key, simulated time, the full measurement
  payload, the cell's own simulator work counters -- exact,
  machine-independent integers, see :mod:`repro.sim.instrumentation` -- and,
  for a traced run, the tracer fragment plus its span rollups), ``counters``
  (the aggregate of the per-cell blocks) and ``experiments`` (the merged
  rows).  Every value is a property of the model, so the body is
  byte-identical across runs, machines and worker counts: any difference
  between two bodies is a model change, never noise.
* the optional **host** section -- everything that varies between runs
  (Python, platform, CPU count, worker count, argv, elapsed wall, per-cell
  and per-experiment wall).  ``run --artifact`` records it; traces leave it
  out, which is what keeps them diffable regression evidence.

The CI benchmark gate (:mod:`repro.runner.regression`) compares bodies for
equality and reads ``host`` for the parallel speedup; ``docs/performance.md``
documents how to read both parts.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Any, Dict, List, Optional

from repro.obs import span_rollups
from repro.runner.cells import CellResult
from repro.runner.parallel import RunReport
from repro.runner.registry import RunConfig
from repro.sim.instrumentation import aggregate_counters
from repro.util.errors import ConfigurationError

SCHEMA = "blobcr-repro/artifact"
SCHEMA_VERSION = 2

#: what a ``merge_traces`` fragment must carry
_TRACE_SECTIONS = (
    ("groups", list),
    ("spans", list),
    ("instants", list),
    ("counters", list),
    ("histograms", dict),
)


class ArtifactError(ConfigurationError):
    """An artifact document is missing, malformed or incompatible."""


def environment_info() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def _cell_record(result: CellResult) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "key": result.key,
        "experiment": result.experiment,
        "sim_time_s": result.sim_time_s,
        "payload": result.payload,
        "counters": result.counters,
    }
    if result.trace is not None:
        record["trace"] = result.trace
        record["rollups"] = span_rollups(result.trace)
    return record


def build_artifact(
    report: RunReport,
    argv: Optional[List[str]] = None,
    host: bool = True,
) -> Dict[str, Any]:
    """Build the JSON-serialisable artifact document for one run.

    ``host=False`` builds the body alone (what ``trace`` writes): nothing in
    it depends on the machine, the worker count or the command line.
    """
    config = report.config or RunConfig()
    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "run": {
            "experiments": list(report.experiments),
            "paper_scale": report.paper_scale,
            # Every --override / --seed, so a recorded run is reproducible
            # from the artifact alone.
            "overrides": list(config.overrides),
            "seed": config.seed,
            "cells": len(report.cell_results),
            "sim_time_s": report.total_sim_time_s,
        },
        "cells": [_cell_record(r) for r in report.cell_results],
        "counters": {"aggregate": aggregate_counters([r.counters for r in report.cell_results])},
        "experiments": {
            result.experiment: {"description": result.description, "rows": result.rows}
            for result in report.results
        },
    }
    if host:
        document["host"] = {
            **environment_info(),
            "workers": report.workers,
            "argv": list(argv) if argv is not None else None,
            "wall_time_s": report.wall_time_s,
            "cell_wall_time_s": {r.key: r.wall_time_s for r in report.cell_results},
            "experiment_wall_time_s": {
                result.experiment: sum(
                    r.wall_time_s for r in report.cell_results if r.experiment == result.experiment
                )
                for result in report.results
            },
        }
    return document


def _validate_cell(index: int, cell: Any) -> None:
    if not isinstance(cell, dict):
        raise ArtifactError(
            f"artifact cells[{index}]: a cell must be an object, got {type(cell).__name__}"
        )
    for key in ("key", "experiment", "sim_time_s", "payload", "counters"):
        if key not in cell:
            raise ArtifactError(f"artifact cells[{index}] is missing {key!r}: {cell.get('key')}")
    name = cell["key"]
    if not isinstance(name, str):
        raise ArtifactError(f"artifact cells[{index}].key must be a string, got {name!r}")
    if not isinstance(cell["counters"], dict):
        raise ArtifactError(f"artifact cell {name!r} counters must be an object")
    for counter, value in cell["counters"].items():
        if not isinstance(value, int):
            raise ArtifactError(
                f"artifact cell {name!r} counter {counter!r} must be an integer, "
                f"got {value!r} in its counters"
            )
    if "trace" not in cell and "rollups" not in cell:
        return
    for key in ("trace", "rollups"):
        if key not in cell:
            raise ArtifactError(f"artifact cell {name!r} is missing {key!r}")
    trace = cell["trace"]
    if not isinstance(trace, dict):
        raise ArtifactError(f"artifact cell {name!r} trace must be an object")
    for key, kind in _TRACE_SECTIONS:
        if not isinstance(trace.get(key), kind):
            raise ArtifactError(f"artifact cell {name!r} trace.{key} must be a {kind.__name__}")
    for span in trace["spans"]:
        if not isinstance(span, dict) or "name" not in span or "t0_s" not in span:
            raise ArtifactError(
                f"artifact cell {name!r} has a malformed span in trace.spans: {span!r}"
            )


def _validate_host(document: Dict[str, Any]) -> None:
    host = document["host"]
    if not isinstance(host, dict):
        raise ArtifactError("artifact 'host' must be a dict")
    if not isinstance(host.get("wall_time_s"), (int, float)):
        raise ArtifactError("artifact host.wall_time_s must be a number")
    for section, what, names in (
        ("cell_wall_time_s", "cell key", [cell["key"] for cell in document["cells"]]),
        ("experiment_wall_time_s", "experiment", list(document["experiments"])),
    ):
        walls = host.get(section)
        if not isinstance(walls, dict):
            raise ArtifactError(f"artifact host.{section} must be an object")
        for name in names:
            if not isinstance(walls.get(name), (int, float)):
                raise ArtifactError(
                    f"artifact host.{section}[{name!r}] must be the wall time of {what} {name!r}"
                )


def validate_artifact(document: Any) -> Dict[str, Any]:
    """Check an artifact document against the schema; return it on success."""
    if not isinstance(document, dict):
        raise ArtifactError(f"artifact must be a JSON object, got {type(document).__name__}")
    if document.get("schema") != SCHEMA:
        raise ArtifactError(f"not a {SCHEMA} document: schema={document.get('schema')!r}")
    version = document.get("schema_version")
    if not isinstance(version, int) or version != SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported schema_version {version!r} (this reader handles {SCHEMA_VERSION})"
        )
    for section, kind in (
        ("run", dict),
        ("cells", list),
        ("counters", dict),
        ("experiments", dict),
    ):
        if section not in document:
            raise ArtifactError(f"artifact is missing the {section!r} section")
        if not isinstance(document[section], kind):
            raise ArtifactError(f"artifact {section!r} must be a {kind.__name__}")
    for index, cell in enumerate(document["cells"]):
        _validate_cell(index, cell)
    if not isinstance(document["counters"].get("aggregate"), dict):
        raise ArtifactError("artifact counters.aggregate must be an object")
    for name, experiment in document["experiments"].items():
        if not isinstance(experiment, dict):
            raise ArtifactError(f"artifact experiment {name!r} must be an object")
        if not isinstance(experiment.get("rows"), list):
            raise ArtifactError(f"artifact experiment {name!r} rows must be a list")
    if "host" in document:
        _validate_host(document)
    return document


def write_artifact(path: str, document: Dict[str, Any]) -> None:
    """Validate and write one artifact document (``-`` for stdout)."""
    validate_artifact(document)
    payload = json.dumps(document, indent=2, sort_keys=False, default=str)
    if path == "-":
        sys.stdout.write(payload + "\n")
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")


def load_artifact(path: str) -> Dict[str, Any]:
    """Read and validate one artifact document from ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact {path} is not valid JSON: {exc}") from exc
    return validate_artifact(document)
