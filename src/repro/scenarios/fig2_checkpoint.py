"""Figure 2: completion time to checkpoint an increasing number of processes.

One process per VM instance, data buffers of 50 MB (Fig. 2a) and 200 MB
(Fig. 2b), five approaches.  The reported quantity is the time from the
moment the global checkpoint is requested until every snapshot is persisted.

Each (approach, scale-point, buffer-size) triple is one independent runner
cell (``fig2:<approach>:<processes>:<buffer>MB``), declared as a
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
from repro.scenarios.spec import Axis, ScenarioSpec, approach_matrix

_DESCRIPTION = "checkpoint completion time vs number of processes (s)"


#: merge executed fig2 cells back into the paper's row layout
merge_fig2 = approach_matrix(
    "fig2",
    _DESCRIPTION,
    row_key=lambda p: {"buffer_MB": p["buffer_bytes"] // 10**6, "processes": p["instances"]},
    value=lambda p: p["checkpoint_time"],
)

SCENARIO = ScenarioSpec(
    name="fig2",
    description=_DESCRIPTION,
    axes=(
        Axis("buffer_bytes", PAPER_BUFFER_SIZES, fmt=format_mb),
        Axis("instances", BENCH_SCALE_POINTS, paper_values=PAPER_SCALE_POINTS),
        Axis("approach", APPROACHES),
    ),
    key_axes=("approach", "instances", "buffer_bytes"),
    cell_func=run_synthetic_cell,
    cell_params=lambda point: {
        "approach": point["approach"],
        "instances": point["instances"],
        "buffer_bytes": point["buffer_bytes"],
        "include_restart": False,
    },
    merge=merge_fig2,
)

register_scenario(SCENARIO)
