"""Figure 5: four successive checkpoints of one VM instance (200 MB buffer).

Before every checkpoint the benchmark refills its buffer with fresh random
data.  Figure 5a reports the completion time of each checkpoint; Figure 5b
the total persistent storage after each checkpoint.

Expected shapes: BlobCR stays flat in time (only incremental differences are
shipped) and grows linearly in storage; ``qcow2-disk`` grows linearly in time
(the copied file keeps growing) and super-linearly in storage (each copy
duplicates all earlier data); ``qcow2-full`` grows linearly in both (a single
ever-growing file is kept).

Each approach's checkpoint sequence and a verified restart from its last
checkpoint is one runner cell (``fig5:<approach>``) -- successive checkpoints
of one VM are inherently sequential, but the approaches are independent.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.scenarios.results import ExperimentResult
from repro.scenarios.workloads import APPROACHES, run_synthetic_cell
from repro.runner.cells import CellResult
from repro.runner.registry import register_scenario
from repro.scenarios.spec import Axis, ScenarioSpec
from repro.util.units import MB

_DESCRIPTION = "successive checkpoints of one VM: completion time (s) and storage (MB)"


def merge_fig5(results: Sequence[CellResult]) -> ExperimentResult:
    """Merge executed fig5 cells back into the per-checkpoint row layout."""
    result = ExperimentResult(experiment="fig5", description=_DESCRIPTION)
    if not results:
        return result
    checkpoints = max(len(cell.payload["checkpoint_times"]) for cell in results)
    for index in range(checkpoints):
        row = {"checkpoint": index + 1}
        for cell in results:
            payload = cell.payload
            approach = payload["approach"]
            row[f"{approach} time_s"] = payload["checkpoint_times"][index]
            row[f"{approach} storage_MB"] = round(
                payload["storage_trajectory"][index] / 10**6, 1
            )
        result.rows.append(row)
    return result


SCENARIO = ScenarioSpec(
    name="fig5",
    description=_DESCRIPTION,
    axes=(
        Axis("approach", APPROACHES),
        Axis("checkpoints", (4,)),
        Axis("buffer_bytes", (200 * MB,)),
    ),
    key_axes=("approach",),
    cell_func=partial(run_synthetic_cell, instances=1),
    merge=merge_fig5,
)

register_scenario(SCENARIO)
