"""Beyond-paper scenario: checkpoint/restart scalability sweep (``scale``).

The paper stops at 120 VM instances -- the size of one Grid'5000 cluster.
This sweep pushes the same deploy/checkpoint/restart cycle to 16384
instances (under ``--paper-scale``; the default reduced axis covers 16..64),
growing the simulated cloud with the instance count while keeping the
per-node hardware calibration fixed.  The declared quantities are the three
phase completion times per approach, exposing how the BlobSeer
data/metadata planes and the PVFS baselines degrade as the aggregate write
pressure grows.

The 4096-instance axis became affordable with the incremental
fluid-bandwidth solver and the array-based placement selection; the 8192
axis with the batched end-of-instant flush and the vectorised progressive
filling loop; the 16384 axis with persistent component/array maintenance
across events (see ``docs/performance.md`` for measured wall times).  The
reduced axis is unchanged so the committed benchmark baseline stays
comparable.
"""

from __future__ import annotations

from repro.runner.registry import register_scenario
from repro.scenarios.results import merge_rows
from repro.scenarios.spec import Axis, ScenarioSpec
from repro.scenarios.workloads import run_synthetic_cell
from repro.util.units import MB

#: the scale study contrasts the two disk-snapshot approaches
SCALE_APPROACHES = ("BlobCR-app", "qcow2-disk-app")

_DESCRIPTION = (
    "deploy / checkpoint / restart completion time (s) per approach vs "
    "instance count, up to 16384 instances at paper scale"
)


SCENARIO = ScenarioSpec(
    name="scale",
    description=_DESCRIPTION,
    axes=(
        Axis(
            "instances",
            (16, 32, 64),
            paper_values=(512, 1024, 2048, 4096, 8192, 16384),
        ),
        Axis("approach", SCALE_APPROACHES),
        Axis("buffer_bytes", (50 * MB,)),
    ),
    key_axes=("approach", "instances"),
    cell_func=run_synthetic_cell,
    # one row per instance count; phase times column-per-approach
    merge=merge_rows(
        "scale",
        _DESCRIPTION,
        row_key=lambda p: {"instances": p["instances"]},
        columns=lambda p: {
            f"{p['approach']} deploy_s": p["deploy_time"],
            f"{p['approach']} ckpt_s": p["checkpoint_time"],
            f"{p['approach']} restart_s": p["restart_time"],
        },
    ),
)

register_scenario(SCENARIO)
