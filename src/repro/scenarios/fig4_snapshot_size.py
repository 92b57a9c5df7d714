"""Figure 4: per-VM snapshot size for data buffers of 50 MB and 200 MB.

The snapshot of an application-level checkpoint contains the dumped buffer
plus the minor file-system updates of the guest OS (boot-time configuration,
logs); the process-level snapshot adds BLCR's small context overhead; the
full VM snapshot additionally carries the whole RAM / device state.  Sizes
are measured from the storage layer, not assumed.

Each (approach, buffer-size) pair is one independent runner cell
(``fig4:<approach>:<buffer>MB``), declared as a
:class:`~repro.scenarios.spec.ScenarioSpec` sweep.
"""

from __future__ import annotations

from functools import partial

from repro.scenarios.workloads import (
    APPROACHES,
    PAPER_BUFFER_SIZES,
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
        Axis("instances", (2,)),
    ),
    key_axes=("approach", "buffer_bytes"),
    cell_func=partial(run_synthetic_cell, include_restart=False),
    merge=merge_fig4,
)

register_scenario(SCENARIO)
