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

At the reduced scale the regenerated rows are also compared with the rows
pinned in ``benchmarks/baseline.json``: that file is the contract ("the 125
byte-verified cells"), and this is the one place that holds every scenario
to it on every tier-1 run at no extra simulation cost.
"""

import json
import os
from pathlib import Path

import pytest

from repro.runner.artifact import SCHEMA, SCHEMA_VERSION, environment_info, load_artifact

PAPER_SCALE = os.environ.get("REPRO_PAPER_SCALE", "0") not in ("0", "", "false")

_BASELINE = load_artifact(str(Path(__file__).with_name("baseline.json")))
#: rows of the committed reduced-scale baseline, per experiment name
BASELINE_ROWS = {name: entry["rows"] for name, entry in _BASELINE["experiments"].items()}


@pytest.fixture(scope="session")
def paper_scale() -> bool:
    return PAPER_SCALE


def attach_rows(benchmark, result) -> None:
    """Record a result's rows in the benchmark metadata and hold them to the baseline.

    Results whose name is not a registered scenario (the ad-hoc ablations)
    have no baseline entry and are only recorded.
    """
    if not PAPER_SCALE and result.experiment in BASELINE_ROWS:
        # Same serialisation as the artifact writer, so e.g. float keys and
        # tuples compare the way they were pinned.
        regenerated = json.loads(json.dumps(result.rows, default=str))
        message = f"{result.experiment}: regenerated rows differ from benchmarks/baseline.json"
        assert regenerated == BASELINE_ROWS[result.experiment], message
    benchmark.extra_info["experiment"] = result.experiment
    benchmark.extra_info["rows"] = result.rows
    benchmark.extra_info["artifact_schema"] = f"{SCHEMA}/v{SCHEMA_VERSION}"
    benchmark.extra_info["environment"] = environment_info()
