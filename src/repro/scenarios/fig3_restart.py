"""Figure 3: completion time to restart an increasing number of processes.

All instances are killed and re-deployed on different compute nodes using the
snapshots of the previous global checkpoint as their virtual disks; except
for ``qcow2-full`` the guest OS reboots and the processes restore their state
from the saved files.  The reported time spans re-deployment through the last
successful state restoration.

Each (approach, scale-point, buffer-size) triple is one independent runner
cell (``fig3:<approach>:<hosts>:<buffer>MB``), declared as a
:class:`~repro.scenarios.spec.ScenarioSpec` sweep.
"""

from __future__ import annotations

from repro.scenarios.workloads import (
    APPROACHES,
    BENCH_SCALE_POINTS,
    PAPER_BUFFER_SIZES,
    PAPER_SCALE_POINTS,
    format_mb,
    run_synthetic_cell,
)
from repro.runner.registry import register_scenario
from repro.scenarios.results import merge_rows
from repro.scenarios.spec import Axis, ScenarioSpec

_DESCRIPTION = "restart completion time vs number of hosts (s)"

#: merge executed fig3 cells back into the paper's row layout
merge_fig3 = merge_rows(
    "fig3",
    _DESCRIPTION,
    row_key=lambda p: {"buffer_MB": p["buffer_bytes"] // 10**6, "hosts": p["instances"]},
    columns=lambda p: {p["approach"]: p["restart_time"]},
)

SCENARIO = ScenarioSpec(
    name="fig3",
    description=_DESCRIPTION,
    axes=(
        Axis("buffer_bytes", PAPER_BUFFER_SIZES, fmt=format_mb),
        Axis("instances", BENCH_SCALE_POINTS, paper_values=PAPER_SCALE_POINTS),
        Axis("approach", APPROACHES),
    ),
    key_axes=("approach", "instances", "buffer_bytes"),
    cell_func=run_synthetic_cell,
    merge=merge_fig3,
)

register_scenario(SCENARIO)
