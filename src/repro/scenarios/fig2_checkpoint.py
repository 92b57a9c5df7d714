"""Figure 2: completion time to checkpoint an increasing number of processes.

One process per VM instance, data buffers of 50 MB (Fig. 2a) and 200 MB
(Fig. 2b), five approaches.  The reported quantity is the time from the
moment the global checkpoint is requested until every snapshot is persisted.

Each (approach, scale-point, buffer-size) triple is one runner cell
(``fig2:<approach>:<processes>:<buffer>MB``), declared as a view of Figure 3's
sweep: the cell reports the checkpoint phase of its ``fig3`` twin's cycle, so
a run (or a ``Session``) that selects both executes that cycle once.
"""

from __future__ import annotations

from repro.scenarios.workloads import (
    APPROACHES,
    BENCH_SCALE_POINTS,
    PAPER_BUFFER_SIZES,
    PAPER_SCALE_POINTS,
    checkpoint_view,
    format_mb,
    run_synthetic_cell,
)
from repro.runner.registry import register_scenario
from repro.scenarios.results import merge_rows
from repro.scenarios.spec import Axis, ScenarioSpec

_DESCRIPTION = "checkpoint completion time vs number of processes (s)"


#: merge executed fig2 cells back into the paper's row layout
merge_fig2 = merge_rows(
    "fig2",
    _DESCRIPTION,
    row_key=lambda p: {"buffer_MB": p["buffer_bytes"] // 10**6, "processes": p["instances"]},
    columns=lambda p: {p["approach"]: p["checkpoint_time"]},
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
    merge=merge_fig2,
    view_of="fig3",
    view=checkpoint_view,
)

register_scenario(SCENARIO)
