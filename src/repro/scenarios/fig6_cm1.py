"""Figure 6: CM1 checkpoint performance for an increasing number of processes.

Weak scaling of the CM1 hurricane simulation: each MPI process solves a fixed
50x50 subdomain, four processes run per quad-core VM instance, and a global
checkpoint is taken after a period of execution.  The paper omits
``qcow2-full`` (its snapshots grow unacceptably large).

Each (approach, process-count) pair is one independent runner cell
(``fig6:<approach>:<processes>``), declared as a
:class:`~repro.scenarios.spec.ScenarioSpec` sweep.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.apps.cm1 import CM1Application, CM1Config
from repro.scenarios.workloads import CM1_APPROACHES, make_deployment, split_approach
from repro.runner.registry import register_scenario
from repro.scenarios.spec import Axis, ScenarioSpec, approach_matrix
from repro.util.config import GRAPHENE, ClusterSpec

#: process counts of the paper's Figure 6 (4 processes per VM)
PAPER_CM1_PROCESSES = (64, 160, 256, 400)
#: reduced axis for the default benchmark run
BENCH_CM1_PROCESSES = (16, 48)

_DESCRIPTION = "CM1 global checkpoint completion time vs number of processes (s)"


def run_cm1_scenario(
    approach: str,
    processes: int,
    spec: Optional[ClusterSpec] = None,
    config: Optional[CM1Config] = None,
    warmup_iterations: int = 10,
) -> Tuple[float, Dict[str, int]]:
    """Run one CM1 deploy/warmup/checkpoint cycle.

    Returns the global checkpoint completion time and the per-instance
    snapshot sizes (used by Table 1).
    """
    config = config or CM1Config()
    processes_per_instance = 4
    instances = max(1, processes // processes_per_instance)
    spec = spec or GRAPHENE
    if instances > spec.compute_nodes:
        spec = spec.scaled(compute_nodes=instances)
    deployment = make_deployment(approach, spec)
    cloud = deployment.cloud
    _backend, level = split_approach(approach)
    app = CM1Application(deployment, config, processes_per_instance=processes_per_instance)
    out: Dict[str, object] = {}

    def scenario():
        yield from deployment.deploy(instances, processes_per_instance=processes_per_instance)
        app.init_domain()
        yield from app.run_iterations(warmup_iterations)
        if level == "app":
            checkpoint, duration = yield from app.checkpoint_app_level()
        else:
            checkpoint, duration = yield from app.checkpoint_process_level()
        out["duration"] = duration
        out["sizes"] = {
            rec.instance_id: rec.snapshot_bytes for rec in checkpoint.records.values()
        }
        return out

    cloud.run(cloud.process(scenario(), name=f"cm1:{approach}"))
    return float(out["duration"]), dict(out["sizes"])  # type: ignore[arg-type]


def run_cm1_cell(
    approach: str,
    processes: int,
    spec: Optional[ClusterSpec] = None,
    config: Optional[CM1Config] = None,
    warmup_iterations: int = 10,
) -> Dict[str, Any]:
    """Run one CM1 cell and return a JSON-serialisable payload."""
    duration, sizes = run_cm1_scenario(
        approach,
        processes,
        spec=spec,
        config=config,
        warmup_iterations=warmup_iterations,
    )
    return {
        "approach": approach,
        "processes": processes,
        "duration": duration,
        "sizes": sizes,
        "sim_time_s": duration,
    }


#: merge executed fig6 cells back into the paper's row layout
merge_fig6 = approach_matrix(
    "fig6",
    _DESCRIPTION,
    row_key=lambda p: {"processes": p["processes"]},
    value=lambda p: p["duration"],
)

SCENARIO = ScenarioSpec(
    name="fig6",
    description=_DESCRIPTION,
    axes=(
        Axis("processes", BENCH_CM1_PROCESSES, paper_values=PAPER_CM1_PROCESSES),
        Axis("approach", CM1_APPROACHES),
    ),
    key_axes=("approach", "processes"),
    cell_func=run_cm1_cell,
    cell_params=lambda point: {
        "approach": point["approach"],
        "processes": point["processes"],
        "config": None,
    },
    merge=merge_fig6,
)

register_scenario(SCENARIO)
