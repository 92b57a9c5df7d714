"""Table 1: CM1 per disk-snapshot size.

The paper reports, for one CM1 run, the size of the disk snapshot each
approach persists per VM instance:

============================  =======
approach                      size
============================  =======
``BlobCR-app``                52 MB
``qcow2-disk-app``            45 MB
``BlobCR-blcr``               127 MB
``qcow2-disk-blcr``           120 MB
============================  =======

Application-level snapshots hold only the dumped subdomains (plus guest OS
noise and the block-granularity overhead of BlobCR); BLCR snapshots are much
larger because every byte the processes allocated -- scratch arrays included
-- ends up in the context files.

Each approach is one independent runner cell (``table1:<approach>``),
declared as a :class:`~repro.scenarios.spec.ScenarioSpec` sweep.
"""

from __future__ import annotations

from typing import Sequence

from repro.scenarios.fig6_cm1 import (
    BENCH_CM1_PROCESSES,
    PAPER_CM1_PROCESSES,
    run_cm1_cell,
)
from repro.scenarios.results import ExperimentResult
from repro.scenarios.workloads import CM1_APPROACHES
from repro.runner.cells import CellResult
from repro.runner.registry import register_scenario
from repro.scenarios.spec import Axis, ScenarioSpec

_DESCRIPTION = "CM1 per disk-snapshot size (MB per VM instance)"


def merge_table1(results: Sequence[CellResult]) -> ExperimentResult:
    """Merge executed table1 cells back into the paper's row layout."""
    result = ExperimentResult(experiment="table1", description=_DESCRIPTION)
    for cell in results:
        payload = cell.payload
        sizes = payload["sizes"]
        per_instance = max(sizes.values()) if sizes else 0
        result.rows.append(
            {
                "approach": payload["approach"],
                "snapshot_MB": round(per_instance / 10**6, 1),
            }
        )
    return result


SCENARIO = ScenarioSpec(
    name="table1",
    description=_DESCRIPTION,
    axes=(
        Axis("approach", CM1_APPROACHES),
        Axis("processes", (BENCH_CM1_PROCESSES[0],), paper_values=(PAPER_CM1_PROCESSES[0],)),
    ),
    key_axes=("approach",),
    cell_func=run_cm1_cell,
    merge=merge_table1,
)

register_scenario(SCENARIO)
