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

from repro.scenarios.fig6_cm1 import (
    BENCH_CM1_PROCESSES,
    PAPER_CM1_PROCESSES,
    run_cm1_cell,
)
from repro.scenarios.results import merge_rows
from repro.scenarios.workloads import CM1_APPROACHES
from repro.runner.registry import register_scenario
from repro.scenarios.spec import Axis, ScenarioSpec

_DESCRIPTION = "CM1 per disk-snapshot size (MB per VM instance)"


SCENARIO = ScenarioSpec(
    name="table1",
    description=_DESCRIPTION,
    axes=(
        Axis("approach", CM1_APPROACHES),
        Axis("processes", (BENCH_CM1_PROCESSES[0],), paper_values=(PAPER_CM1_PROCESSES[0],)),
    ),
    key_axes=("approach",),
    cell_func=run_cm1_cell,
    # one row per approach: the largest per-instance snapshot
    merge=merge_rows(
        "table1",
        _DESCRIPTION,
        row_key=lambda p: {"approach": p["approach"]},
        columns=lambda p: {"snapshot_MB": round(max(p["sizes"].values()) / 10**6, 1)},
    ),
)

register_scenario(SCENARIO)
