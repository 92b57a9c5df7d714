"""Shared configuration of the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
(but shape-preserving) scale so the whole suite finishes in a few minutes;
set ``REPRO_PAPER_SCALE=1`` to run the original axes (up to 120 VM instances
and 400 CM1 processes), which takes considerably longer.

The regenerated rows are attached to the benchmark's ``extra_info`` so that
``pytest-benchmark``'s JSON output doubles as the experiment record; the
``artifact_schema`` key ties it to the schema the runner's ``--artifact``
documents use (see ``repro.runner.artifact`` and ``check_regression.py``,
which gates CI on those documents).

At the reduced scale the regenerated rows, and the work counters of every
cell behind them, are also compared with those pinned in
``benchmarks/baseline.json``: that file is the contract ("the 125
byte-verified cells"), and this is the one place that holds every scenario
to it on every tier-1 run at no extra simulation cost.  A counter is the
finer check: a solver change that settles or allocates more flows per
event moves ``bw_flows_settled`` or ``bw_component_flows`` before any row.
"""

import json
import os
from pathlib import Path

import pytest

from repro.runner import parallel
from repro.runner.artifact import SCHEMA, SCHEMA_VERSION, environment_info, load_artifact

PAPER_SCALE = os.environ.get("REPRO_PAPER_SCALE", "0") not in ("0", "", "false")

_BASELINE = load_artifact(str(Path(__file__).with_name("baseline.json")))
#: rows of the committed reduced-scale baseline, per experiment name
BASELINE_ROWS = {name: entry["rows"] for name, entry in _BASELINE["experiments"].items()}
#: per-cell work counters of the committed baseline, per cell key
BASELINE_COUNTERS = {cell["key"]: cell["counters"] for cell in _BASELINE["cells"]}
#: counters of every cell this session executed in process, per cell key
_CELL_COUNTERS = {}


@pytest.fixture(scope="session", autouse=True)
def _record_cell_counters():
    """Keep each executed cell's counters for :func:`attach_rows`.

    At one worker ``ParallelRunner`` calls ``execute_cell`` in this process,
    so wrapping the name it calls sees every cell a benchmark regenerates.
    """
    execute_cell = parallel.execute_cell

    def recording(cell, trace=False):
        result = execute_cell(cell, trace)
        _CELL_COUNTERS[result.key] = result.counters
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "execute_cell", recording)
        yield


@pytest.fixture(scope="session")
def paper_scale() -> bool:
    return PAPER_SCALE


def attach_rows(benchmark, result) -> None:
    """Record a result's rows in the benchmark metadata and hold them, and
    the counters of each of its cells, to the baseline.

    Results whose name is not a registered scenario (the ad-hoc ablations)
    have no baseline entry and are only recorded.
    """
    if not PAPER_SCALE and result.experiment in BASELINE_ROWS:
        # Same serialisation as the artifact writer, so e.g. float keys and
        # tuples compare the way they were pinned.
        regenerated = json.loads(json.dumps(result.rows, default=str))
        message = f"{result.experiment}: regenerated rows differ from benchmarks/baseline.json"
        assert regenerated == BASELINE_ROWS[result.experiment], message
        for key in result.cell_keys:
            message = f"{key}: cell counters differ from benchmarks/baseline.json"
            assert _CELL_COUNTERS[key] == BASELINE_COUNTERS[key], message
    benchmark.extra_info["experiment"] = result.experiment
    benchmark.extra_info["rows"] = result.rows
    benchmark.extra_info["artifact_schema"] = f"{SCHEMA}/v{SCHEMA_VERSION}"
    benchmark.extra_info["environment"] = environment_info()
