"""Beyond-paper scenario: checkpoint under network contention (``contention``).

IaaS clouds are multi-tenant: the paper's measurements assume the fabric is
otherwise idle, which Grid'5000 granted but production clouds do not.  This
scenario re-runs the global checkpoint while a configurable number of
background tenants saturate the switch with long-lived bulk flows, on a
deliberately oversubscribed fabric (the cluster plan caps the switch
backplane at 8 NICs' worth of bandwidth instead of the paper's effectively
non-blocking 120).

Each (approach, flow-count) cell deploys the instances, starts the
background flows on disjoint node pairs, takes one global checkpoint and
reports its completion time -- the fair-share simulation lets the checkpoint
traffic and the tenant flows degrade each other exactly as max-min fairness
dictates.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from repro.apps.synthetic import SyntheticBenchmark
from repro.runner.registry import register_scenario
from repro.scenarios.results import merge_rows
from repro.scenarios.spec import Axis, ScenarioSpec
from repro.scenarios.workloads import make_deployment, require_positive, split_approach
from repro.service.traffic import background_flow
from repro.util.config import GRAPHENE, ClusterSpec
from repro.util.units import MB

#: the contention study contrasts the two disk-snapshot approaches
CONTENTION_APPROACHES = ("BlobCR-app", "qcow2-disk-app")

#: switch backplane capacity of the oversubscribed fabric, in NIC equivalents
OVERSUBSCRIBED_NICS = 8

_DESCRIPTION = (
    "global checkpoint completion time (s) per approach vs number of "
    "background tenant flows on an oversubscribed switch fabric"
)


def oversubscribed_fabric(spec: ClusterSpec) -> ClusterSpec:
    """Cluster plan: cap the switch backplane at a few NICs' worth."""
    network = spec.network
    capped = OVERSUBSCRIBED_NICS * network.nic_bandwidth
    if network.switch_bandwidth > capped:
        spec = spec.scaled(network=replace(network, switch_bandwidth=capped))
    return spec


def run_contention_cell(
    approach: str,
    flows: int,
    instances: int = 8,
    buffer_bytes: int = 50 * MB,
    flow_chunk_bytes: int = 64 * MB,
    spec: Optional[ClusterSpec] = None,
) -> Dict[str, Any]:
    """Run one (approach, background-flow-count) contention cell."""
    require_positive(instances=instances, buffer_bytes=buffer_bytes)
    spec = oversubscribed_fabric(spec or GRAPHENE)
    # Tenants run on node pairs disjoint from the instances' hosts.
    needed = instances + 2 * flows
    if needed > spec.compute_nodes:
        spec = spec.scaled(compute_nodes=needed)
    deployment = make_deployment(approach, spec)
    cloud = deployment.cloud
    _backend, level = split_approach(approach)
    bench = SyntheticBenchmark(deployment, buffer_bytes, level=level)

    def scenario():
        yield from deployment.deploy(instances, processes_per_instance=1)
        bench.fill_buffers()
        stop = {"done": False}
        for i in range(flows):
            src = cloud.compute_nodes[instances + 2 * i].name
            dst = cloud.compute_nodes[instances + 2 * i + 1].name
            cloud.process(
                background_flow(cloud, src, dst, flow_chunk_bytes, stop),
                name=f"tenant-{i}",
            )
        t0 = cloud.now
        checkpoint = yield from bench.checkpoint()
        stop["done"] = True
        return cloud.now - t0, checkpoint

    checkpoint_time, checkpoint = cloud.run(
        cloud.process(scenario(), name=f"contention:{approach}")
    )
    return {
        "approach": approach,
        "flows": flows,
        "instances": instances,
        "buffer_bytes": buffer_bytes,
        "checkpoint_time": checkpoint_time,
        "snapshot_bytes_per_instance": checkpoint.max_snapshot_bytes,
        "sim_time_s": checkpoint_time,
    }


SCENARIO = ScenarioSpec(
    name="contention",
    description=_DESCRIPTION,
    axes=(
        Axis("flows", (0, 8, 32), paper_values=(0, 8, 16, 32, 48)),
        Axis("approach", CONTENTION_APPROACHES),
        Axis("instances", (8,), paper_values=(16,)),
        Axis("buffer_bytes", (50 * MB,)),
    ),
    key_axes=("approach", "flows"),
    cell_func=run_contention_cell,
    # one row per flow count; checkpoint time column-per-approach
    merge=merge_rows(
        "contention",
        _DESCRIPTION,
        row_key=lambda p: {"flows": p["flows"]},
        columns=lambda p: {p["approach"]: p["checkpoint_time"]},
    ),
)

register_scenario(SCENARIO)
