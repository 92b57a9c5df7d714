"""Beyond-paper scenarios: live migration (``evac`` and ``mig``).

The paper's checkpoint-restart machinery is reactive: a node dies, the
deployment rolls back.  Production clouds also get *predictions* -- SMART
trips, ECC error bursts, planned maintenance windows -- and the natural
response is a planned evacuation: move the instance off the doomed host
*before* it dies.  The ``evac`` scenario pits the evacuation policies
against each other under an ``ft``-style fault trace:

* ``pre-copy`` -- iterative live migration over the snapshot store
  (``blobcr``): dirty rounds while the guest runs, then a short
  stop-and-copy of the residue;
* ``post-copy`` -- immediate switchover, blocks faulted in from the source
  on demand plus a background prefetch sweep;
* ``stop-and-copy`` -- the monolithic baseline (``qcow2-full``): suspend,
  push the whole image through PVFS, resume -- the entire window is
  downtime;
* ``ckpt-restart`` -- the paper's own answer: take a fresh checkpoint on
  warning, let the node die, roll every instance back.

Every policy faces the same predicted failure (the injector seed is keyed
by the sweep point, not the policy) while a dirty writer keeps mutating
guest state, so iterative copying has real work to chase.  Reported per
cell: the evacuee's downtime, the end-to-end policy latency, the bytes
moved, and whether the surviving state verified.

The ``mig`` scenario measures migration *under contention*: the same live
migration while background tenant flows saturate an oversubscribed switch
(the ``contention`` scenario's fabric), contrasting how pre-copy (bandwidth
before switchover) and post-copy (bandwidth after switchover) degrade.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.apps.synthetic import STATE_PATH_TEMPLATE, SyntheticBenchmark
from repro.cluster.failures import FailureInjector
from repro.scenarios.contention import oversubscribed_fabric
from repro.runner.registry import register_scenario
from repro.scenarios.fault_tolerance import fault_tolerant_cluster
from repro.scenarios.results import merge_rows
from repro.scenarios.spec import Axis, ScenarioSpec
from repro.scenarios.workloads import make_deployment, require_positive, split_approach
from repro.service.traffic import background_flow
from repro.util.bytesource import SyntheticBytes
from repro.util.config import GRAPHENE, ClusterSpec
from repro.util.errors import FailureInjected
from repro.util.units import MB

#: evacuation policies, in canonical (cell-enumeration) order
EVAC_POLICIES = ("pre-copy", "post-copy", "stop-and-copy", "ckpt-restart")

#: approach label (backend + checkpoint level) implementing each policy
_POLICY_APPROACH = {
    "pre-copy": "blobcr-app",
    "post-copy": "blobcr-app",
    "stop-and-copy": "qcow2-full",
    "ckpt-restart": "blobcr-app",
}

#: simulated seconds between a crash and the reactive policy noticing it
DETECTION_DELAY_S = 1.0

_EVAC_DESCRIPTION = (
    "planned evacuation ahead of a predicted node failure: evacuee downtime "
    "(s) and bytes moved per policy (live migration vs checkpoint-restart)"
)

_MIG_DESCRIPTION = (
    "live migration under network contention: downtime and total migration "
    "time (s) per mode vs background tenant flows on an oversubscribed fabric"
)


def _dirty_writer(deployment, instance, period_s, write_bytes, stop, seed):
    """Simulation process: keep mutating guest state while the guest runs.

    Writes rotate over a small set of hot files, so pre-copy rounds always
    have freshly dirtied blocks to chase.  Writes pause while the guest is
    suspended (a frozen guest cannot dirty pages) and stop for good when the
    writer's host dies mid-write.
    """
    cloud = deployment.cloud
    iteration = 0
    while not stop["done"]:
        yield cloud.env.timeout(period_s)
        if stop["done"]:
            return
        if not instance.vm.is_running:
            continue
        data = SyntheticBytes((seed, instance.instance_id, iteration), write_bytes)
        path = f"/data/hot-{iteration % 4:02d}.dat"
        try:
            yield from deployment.guest_write_and_sync(instance, path, data)
        except FailureInjected:
            return
        iteration += 1


def run_evac_cell(
    policy: str,
    lead: float,
    instances: int = 4,
    buffer_bytes: int = 20 * MB,
    write_period_s: float = 5.0,
    write_bytes: int = 2 * MB,
    steady_s: float = 12.0,
    spec: Optional[ClusterSpec] = None,
) -> Dict[str, Any]:
    """Run one (policy, lead-time) evacuation cell.

    After ``steady_s`` seconds of steady-state running (dirty writers
    mutating guest state on every instance) the cell learns that one
    instance host will fail in ``lead`` simulated seconds (the victim is
    drawn from an RNG keyed by the sweep point, so every policy evacuates
    the same instance from the same trace).  Migration policies move the
    evacuee to a spare node and must be done before the crash;
    ``ckpt-restart`` checkpoints on warning, waits for the crash and rolls
    the whole deployment back.
    """
    require_positive(instances=instances, buffer_bytes=buffer_bytes)
    approach = _POLICY_APPROACH[policy]
    spec = fault_tolerant_cluster(spec or GRAPHENE)
    # instance hosts + migration target + headroom for the repository layer
    if instances + 3 > spec.compute_nodes:
        spec = spec.scaled(compute_nodes=instances + 3)
    deployment = make_deployment(approach, spec)
    cloud = deployment.cloud
    _backend, level = split_approach(approach)
    bench = SyntheticBenchmark(deployment, buffer_bytes, level=level)
    # Keyed by the sweep point, NOT the policy: every policy faces the same
    # predicted failure.
    injector = FailureInjector(
        cloud, seed=("evac", instances, buffer_bytes, lead)
    )
    out: Dict[str, Any] = {}

    def scenario():
        yield from deployment.deploy(instances, processes_per_instance=1)
        bench.fill_buffers()
        durable = yield from bench.checkpoint()
        durable_epoch = bench.epoch
        stop = {"done": False}
        for inst in deployment.instances:
            cloud.process(
                _dirty_writer(
                    deployment, inst, write_period_s, write_bytes, stop, "evac-hot"
                ),
                name=f"writer:{inst.instance_id}",
            )
        # Steady state: the workload dirties guest state for a while before
        # the failure prediction arrives, so iterative copying has real
        # residue to chase.
        yield cloud.env.timeout(steady_s)
        warned_at = cloud.now
        fails_at = warned_at + lead
        hosts = [inst.node_name for inst in deployment.instances]
        victim = injector.fail_random_at(fails_at, hosts)
        evacuee = next(
            inst for inst in deployment.instances if inst.node_name == victim
        )
        if policy == "ckpt-restart":
            # React to the warning with a fresh checkpoint, then take the
            # crash and roll back -- the paper's machinery, used proactively.
            durable = yield from bench.checkpoint()
            durable_epoch = bench.epoch
            remaining = fails_at - cloud.now
            if remaining > 0:
                yield cloud.env.timeout(remaining)
            yield cloud.env.timeout(DETECTION_DELAY_S)
            t0 = cloud.now
            report = yield from bench.restart(durable)
            out.update(
                downtime_s=cloud.now - fails_at,
                total_s=cloud.now - t0,
                bytes_moved=report.bytes_restored,
                rounds=0,
                remote_faults=0,
                completed_before_failure=False,
                rolled_back=False,
            )
        else:
            target = cloud.reserve_nodes(1, owner=deployment)[0]
            demand = (STATE_PATH_TEMPLATE.format(epoch=durable_epoch),)
            result = yield from deployment.migrate_instance(
                evacuee, target, mode=policy, demand_paths=demand
            )
            completed_before = cloud.now <= fails_at
            remaining = fails_at + DETECTION_DELAY_S - cloud.now
            if remaining > 0:
                yield cloud.env.timeout(remaining)
            out.update(
                downtime_s=result.downtime_s,
                total_s=result.total_migration_s,
                bytes_moved=result.total_bytes_moved,
                rounds=len(result.rounds),
                remote_faults=result.remote_faults,
                completed_before_failure=completed_before,
                rolled_back=result.rolled_back,
            )
        stop["done"] = True
        dead = [
            inst.instance_id
            for inst in deployment.instances
            if not cloud.node(inst.node_name).alive
        ]
        out["survivors_ok"] = not dead
        out["verified"] = bench.verify_restored_state(epoch=durable_epoch)
        return out

    cloud.run(cloud.process(scenario(), name=f"evac:{policy}"))
    out.update(
        policy=policy,
        lead=lead,
        instances=instances,
        buffer_bytes=buffer_bytes,
        failures=len(injector.history),
        sim_time_s=out["total_s"],
    )
    return out


EVAC_SCENARIO = ScenarioSpec(
    name="evac",
    description=_EVAC_DESCRIPTION,
    axes=(
        Axis("policy", EVAC_POLICIES),
        Axis("lead", (45.0,), paper_values=(30.0, 90.0), fmt=lambda v: f"{v:g}"),
        Axis("instances", (4,), paper_values=(8,)),
        Axis("buffer_bytes", (20 * MB,)),
    ),
    key_axes=("policy", "lead"),
    cell_func=run_evac_cell,
    # one row per (policy, lead) cell
    merge=merge_rows(
        "evac",
        _EVAC_DESCRIPTION,
        row_key=lambda p: {"policy": p["policy"], "lead_s": p["lead"]},
        columns=lambda p: {
            "downtime_s": p["downtime_s"],
            "total_s": p["total_s"],
            "bytes_moved": p["bytes_moved"],
            "rounds": p["rounds"],
            "remote_faults": p["remote_faults"],
            "completed_before_failure": p["completed_before_failure"],
            "rolled_back": p["rolled_back"],
            "verified": p["verified"] and p["survivors_ok"],
        },
    ),
)

register_scenario(EVAC_SCENARIO)


# -- migration under contention (``mig``) ----------------------------------------------


def run_mig_cell(
    mode: str,
    flows: int,
    instances: int = 2,
    buffer_bytes: int = 20 * MB,
    hot_bytes: int = 8 * MB,
    flow_chunk_bytes: int = 64 * MB,
    spec: Optional[ClusterSpec] = None,
) -> Dict[str, Any]:
    """Run one (mode, background-flow-count) migration-contention cell.

    The tenants occupy node pairs disjoint from both the instance hosts and
    the migration target, so the only shared resource is the switch
    backplane -- exactly the contention the fluid fair-share model arbitrates.
    """
    require_positive(instances=instances, buffer_bytes=buffer_bytes)
    spec = oversubscribed_fabric(spec or GRAPHENE)
    needed = instances + 1 + 2 * flows
    if needed > spec.compute_nodes:
        spec = spec.scaled(compute_nodes=needed)
    deployment = make_deployment("blobcr-app", spec)
    cloud = deployment.cloud
    bench = SyntheticBenchmark(deployment, buffer_bytes)

    def scenario():
        yield from deployment.deploy(instances, processes_per_instance=1)
        bench.fill_buffers()
        yield from bench.checkpoint()
        migrant = deployment.instances[0]
        # Dirty some state after the checkpoint so both modes have local
        # residue to move (pre-copy in rounds, post-copy on demand).
        hot = SyntheticBytes(("mig-hot", migrant.instance_id), hot_bytes)
        yield from deployment.guest_write_and_sync(migrant, "/data/hot.dat", hot)
        target = cloud.reserve_nodes(1, owner=deployment)[0]
        stop = {"done": False}
        for i in range(flows):
            src = cloud.compute_nodes[instances + 1 + 2 * i].name
            dst = cloud.compute_nodes[instances + 2 + 2 * i].name
            cloud.process(
                background_flow(cloud, src, dst, flow_chunk_bytes, stop),
                name=f"tenant-{i}",
            )
        result = yield from deployment.migrate_instance(
            migrant, target, mode=mode, demand_paths=("/data/hot.dat",)
        )
        stop["done"] = True
        return result

    result = cloud.run(cloud.process(scenario(), name=f"mig:{mode}"))
    return {
        "mode": mode,
        "flows": flows,
        "instances": instances,
        "buffer_bytes": buffer_bytes,
        "downtime_s": result.downtime_s,
        "total_s": result.total_migration_s,
        "bytes_moved": result.total_bytes_moved,
        "remote_faults": result.remote_faults,
        "sim_time_s": result.total_migration_s,
    }


MIG_SCENARIO = ScenarioSpec(
    name="mig",
    description=_MIG_DESCRIPTION,
    axes=(
        Axis("mode", ("pre-copy", "post-copy")),
        Axis("flows", (0, 8, 32), paper_values=(0, 8, 16, 32, 48)),
        Axis("instances", (2,), paper_values=(4,)),
        Axis("buffer_bytes", (20 * MB,)),
    ),
    key_axes=("mode", "flows"),
    cell_func=run_mig_cell,
    # one row per flow count; downtime and total time column-per-mode
    merge=merge_rows(
        "mig",
        _MIG_DESCRIPTION,
        row_key=lambda p: {"flows": p["flows"]},
        columns=lambda p: {
            f"{p['mode']} downtime_s": p["downtime_s"],
            f"{p['mode']} total_s": p["total_s"],
        },
    ),
)

register_scenario(MIG_SCENARIO)
