"""Figure 4: per-VM snapshot size for data buffers of 50 MB and 200 MB.

The snapshot of an application-level checkpoint contains the dumped buffer
plus the minor file-system updates of the guest OS (boot-time configuration,
logs); the process-level snapshot adds BLCR's small context overhead; the
full VM snapshot additionally carries the whole RAM / device state.  Sizes
are measured from the storage layer, not assumed.

Each (approach, buffer-size) pair is one runner cell
(``fig4:<approach>:<buffer>MB``), declared as a view of Figure 3's sweep: it
reports the checkpoint phase of its 4-instance ``fig3`` cycle, which a run
(or a ``Session``) that also selects that cycle executes once.
"""

from __future__ import annotations

from repro.scenarios.workloads import (
    APPROACHES,
    PAPER_BUFFER_SIZES,
    checkpoint_view,
    format_mb,
    run_synthetic_cell,
)
from repro.runner.registry import register_scenario
from repro.scenarios.results import merge_rows
from repro.scenarios.spec import Axis, ScenarioSpec

_DESCRIPTION = "checkpoint space utilisation per VM instance (MB)"

#: merge executed fig4 cells back into the paper's row layout
merge_fig4 = merge_rows(
    "fig4",
    _DESCRIPTION,
    row_key=lambda p: {"buffer_MB": p["buffer_bytes"] // 10**6},
    columns=lambda p: {p["approach"]: round(p["snapshot_bytes_per_instance"] / 10**6, 1)},
)

SCENARIO = ScenarioSpec(
    name="fig4",
    description=_DESCRIPTION,
    axes=(
        Axis("buffer_bytes", PAPER_BUFFER_SIZES, fmt=format_mb),
        Axis("approach", APPROACHES),
        # Fixed parameter modelled as a single-value axis so callers and a
        # single-value ``--override fig4.instances=N`` can still change it.
        Axis("instances", (4,)),
    ),
    key_axes=("approach", "buffer_bytes"),
    cell_func=run_synthetic_cell,
    merge=merge_fig4,
    view_of="fig3",
    view=checkpoint_view,
)

register_scenario(SCENARIO)
