"""Beyond-paper scenario: MTBF-driven fault tolerance sweep (``ft``).

The paper's whole premise is checkpoint-restart that survives fail-stop
failures, yet its evaluation only measures the fault-free building blocks.
This scenario runs the full loop: a long-running synthetic application takes
periodic global checkpoints while a :class:`FailureInjector` kills compute
nodes with exponentially distributed inter-arrival times (mean ``mtbf``).
Whenever a failure strikes -- during computation, mid-checkpoint, or even
during a restart already in progress -- the run rolls back to the most
recent *durable* (globally consistent) checkpoint, re-deploys every instance
on live nodes and repeats the lost work.

Per (approach, MTBF) cell the sweep reports the total completion time, the
work lost to rollbacks, the time spent restarting, and the failure/rollback
counts.  The failure schedule (times and victims, drawn from the nodes
hosting instances at steady state) is fixed up front from an RNG keyed by
the sweep point (not the approach), so every approach faces the same fault
trace -- the comparison is apples to apples, and the whole scenario is
bit-deterministic.  ``failures`` counts every node crash of the trace that
fired; ``rollbacks`` counts the ones that actually hit a hosting node and
forced a recovery (after a rollback relocates instances, later crashes from
the fixed trace may land on since-vacated nodes).

BlobCR stores checkpoint chunks on the compute nodes themselves, so the
scenario's cluster plan raises the BlobSeer replication factor to 2: with
the paper's single replica, the first provider loss would take the only
copy of some chunks with it.  (The qcow2 baselines keep their snapshots in
PVFS, whose functional store spans the surviving I/O servers.)
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional

from repro.apps.synthetic import SyntheticBenchmark
from repro.cluster.failures import FailureInjector
from repro.core.strategy import Deployment
from repro.runner.registry import register_scenario
from repro.scenarios.results import ExperimentResult
from repro.scenarios.spec import Axis, FailurePlan, ScenarioSpec
from repro.scenarios.workloads import make_deployment, split_approach
from repro.util.config import GRAPHENE, ClusterSpec
from repro.util.errors import FailureInjected, SimulationError, StorageError
from repro.util.units import MB

#: one approach per Deployment strategy (BlobCR and both qcow2 baselines)
FT_APPROACHES = ("BlobCR-app", "qcow2-disk-app", "qcow2-full")

_DESCRIPTION = (
    "fault tolerance under fail-stop failures: total runtime (s) and lost "
    "work (s) per approach vs MTBF, rollback to the last durable checkpoint"
)


def fault_tolerant_cluster(spec: ClusterSpec) -> ClusterSpec:
    """The scenario's cluster plan: survive the loss of any one provider."""
    if spec.blobseer.replication < 2:
        spec = spec.scaled(blobseer=replace(spec.blobseer, replication=2))
    return spec


class FaultToleranceDriver:
    """Run deploy -> [compute, checkpoint]* under failures with rollback.

    The driver is the generic executor of a :class:`FailurePlan`: it anchors
    on an initial checkpoint right after deployment (so a rollback target
    always exists), detects failures either through
    :class:`~repro.util.errors.FailureInjected` propagating out of an
    in-flight phase or by a host-liveness check at phase boundaries, and
    rolls back to the last durable checkpoint.  Failures hitting a restart
    in progress simply trigger another rollback.
    """

    def __init__(
        self,
        deployment: Deployment,
        buffer_bytes: int,
        plan: FailurePlan,
        instances: int,
        periods: int = 3,
        period_s: float = 60.0,
        level: str = "app",
        injector_seed: object = "ft",
    ):
        plan.validate()
        self.deployment = deployment
        self.cloud = deployment.cloud
        self.bench = SyntheticBenchmark(deployment, buffer_bytes, level=level)
        self.plan = plan
        self.instances = instances
        self.periods = periods
        self.period_s = period_s
        self.injector = FailureInjector(self.cloud, seed=injector_seed)
        self.stats: Dict[str, Any] = {}

    # -- internals ---------------------------------------------------------------------

    def _schedule_failures(self) -> None:
        if not self.plan.enabled:
            return
        candidates = [inst.node_name for inst in self.deployment.instances]
        if self.plan.at_times:
            for offset in self.plan.at_times:
                self.injector.fail_random_at(self.cloud.now + offset, candidates)
        else:
            self.injector.poisson_failures(
                self.plan.mtbf_s, self.plan.horizon_s, candidates
            )

    def _check_hosts_alive(self) -> None:
        dead = [
            inst.instance_id
            for inst in self.deployment.instances
            if not self.cloud.node(inst.node_name).alive
        ]
        if dead:
            raise FailureInjected(
                f"instance host(s) died: {', '.join(dead)}", node=dead[0]
            )

    def _scenario(self):
        cloud = self.cloud
        out = self.stats
        out.update(
            rollbacks=0,
            lost_work_s=0.0,
            rollback_time_s=0.0,
            restored_ok=True,
            unrecoverable=False,
        )
        t_start = cloud.now
        yield from self.deployment.deploy(self.instances, processes_per_instance=1)
        out["deploy_time"] = cloud.now - t_start
        # Initial checkpoint: the rollback anchor always exists, even when a
        # failure hits before the first period completes.  Failures start
        # once steady-state periodic checkpointing is underway (the plan's
        # clock starts here).
        self.bench.fill_buffers()
        durable = yield from self.bench.checkpoint()
        out["steady_state_at"] = cloud.now
        self._schedule_failures()
        durable_epoch = self.bench.epoch
        durable_completed = 0
        anchor = cloud.now  # last moment whose progress is durably saved
        completed = 0
        pending_restart = False
        attempts = 0
        max_attempts = self.periods * 8 + 16
        while completed < self.periods:
            attempts += 1
            if attempts > max_attempts:
                raise SimulationError(
                    f"fault-tolerance scenario did not converge after {attempts} phases "
                    f"({out['rollbacks']} rollbacks; MTBF too small for the workload?)"
                )
            try:
                if pending_restart:
                    t0 = cloud.now
                    yield from self.bench.restart(durable)
                    out["rollback_time_s"] += cloud.now - t0
                    out["restored_ok"] = out["restored_ok"] and (
                        self.bench.verify_restored_state(epoch=durable_epoch)
                    )
                    pending_restart = False
                    completed = durable_completed
                    anchor = cloud.now
                    continue
                yield cloud.env.timeout(self.period_s)
                self._check_hosts_alive()
                self.bench.fill_buffers()
                checkpoint = yield from self.bench.checkpoint()
                self._check_hosts_alive()
                completed += 1
                durable = checkpoint
                durable_epoch = self.bench.epoch
                durable_completed = completed
                anchor = cloud.now
            except FailureInjected:
                out["rollbacks"] += 1
                out["lost_work_s"] += cloud.now - anchor
                anchor = cloud.now
                pending_restart = True
            except StorageError:
                # Enough providers died that some chunk lost every replica:
                # the checkpoint is gone and rollback is impossible.  Record
                # the data loss as an outcome instead of crashing the cell --
                # it is exactly what the replication axis is there to study.
                out["unrecoverable"] = True
                out["restored_ok"] = False
                break
        # later fills overwrite what a restart restored: check the last durable epoch too
        verified = out["restored_ok"] and self.bench.verify_restored_state(epoch=durable_epoch)
        out["restored_ok"] = verified
        out["total_time"] = cloud.now - t_start
        out["failures"] = len(self.injector.history)
        out["completed_periods"] = completed
        return out

    # -- public API --------------------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Execute the scenario to completion and return the measurements."""
        self.cloud.run(self.cloud.process(self._scenario(), name="ft-driver"))
        return dict(self.stats)


def run_fault_tolerance_cell(
    approach: str,
    mtbf: float,
    instances: int = 8,
    buffer_bytes: int = 20 * MB,
    periods: int = 3,
    period_s: float = 60.0,
    spec: Optional[ClusterSpec] = None,
) -> Dict[str, Any]:
    """Run one (approach, MTBF) fault-tolerance cell.

    ``mtbf`` <= 0 disables injection (the fault-free reference run).  The
    injection horizon covers the fault-free makespan a few times over so
    failures can also hit the recovery phases themselves.
    """
    spec = fault_tolerant_cluster(spec or GRAPHENE)
    if instances + 2 > spec.compute_nodes:
        spec = spec.scaled(compute_nodes=instances + 2)
    deployment = make_deployment(approach, spec)
    _backend, level = split_approach(approach)
    horizon = periods * (period_s + 60.0) * 2.5
    plan = (
        FailurePlan(mtbf_s=mtbf, horizon_s=horizon)
        if mtbf > 0
        else FailurePlan()
    )
    driver = FaultToleranceDriver(
        deployment,
        buffer_bytes,
        plan,
        instances=instances,
        periods=periods,
        period_s=period_s,
        level=level,
        # Keyed by the sweep point, NOT the approach: every approach faces
        # the same failure trace.
        injector_seed=("ft", instances, buffer_bytes, mtbf, periods),
    )
    out = driver.run()
    out.update(
        approach=approach,
        mtbf=mtbf,
        instances=instances,
        buffer_bytes=buffer_bytes,
        sim_time_s=out["total_time"],
    )
    return out


def merge_ft(results) -> ExperimentResult:
    """One row per MTBF; per approach: total runtime, lost work, rollbacks."""
    result = ExperimentResult(experiment="ft", description=_DESCRIPTION)
    rows: Dict[float, Dict[str, Any]] = {}
    for cell in results:
        payload = cell.payload
        mtbf = payload["mtbf"]
        row = rows.get(mtbf)
        if row is None:
            row = {"mtbf_s": mtbf if mtbf > 0 else "none"}
            rows[mtbf] = row
            result.rows.append(row)
        approach = payload["approach"]
        row[f"{approach} total_s"] = payload["total_time"]
        row[f"{approach} lost_s"] = payload["lost_work_s"]
        row[f"{approach} rollbacks"] = payload["rollbacks"]
        row["recovered_ok"] = row.get("recovered_ok", True) and payload["restored_ok"]
    return result


def _fmt_mtbf(value: float) -> str:
    return "nofail" if value <= 0 else f"{value:g}"


SCENARIO = ScenarioSpec(
    name="ft",
    description=_DESCRIPTION,
    axes=(
        Axis("mtbf", (0.0, 150.0, 600.0), paper_values=(0.0, 300.0, 900.0, 3600.0), fmt=_fmt_mtbf),
        Axis("approach", FT_APPROACHES),
        Axis("instances", (8,), paper_values=(24,)),
        Axis("buffer_bytes", (20 * MB,)),
        Axis("periods", (3,), paper_values=(5,)),
    ),
    key_axes=("approach", "mtbf"),
    cell_func=run_fault_tolerance_cell,
    merge=merge_ft,
)

register_scenario(SCENARIO)
