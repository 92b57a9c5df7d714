"""The service driver: one long-lived cloud serving a multi-tenant job trace.

Unlike every per-figure cell (fresh cloud, one closed-loop cycle), the
driver builds **one** shared :class:`~repro.cluster.cloud.Cloud` and runs an
open-loop job stream against it:

* the base image is staged into one shared checkpoint repository up front
  (a provider stages images once, not per tenant), so every BlobCR tenant's
  boots, snapshots and restores compete for the *same* repository bandwidth;
* each tenant gets its own deployment with a tenant-scoped instance prefix
  and exclusively reserved compute nodes (the reservation ledger added to
  :class:`Cloud` for exactly this);
* deploy/restart jobs claim bounded boot slots, checkpoint jobs bounded
  repository slots, through :class:`~repro.service.admission.AdmissionQueue`
  (FIFO or fair, with rejection and timeouts);
* mid-trace failures come from the existing
  :class:`~repro.cluster.failures.FailureInjector`; a tenant whose job dies
  recovers by restarting from its latest checkpoint (one recovery attempt,
  then the tenant is killed).

Everything stochastic flows through ``make_rng`` keyed by the MTBF and
tenant names, and tenants are enumerated in sorted-name order, so a run
is a pure function of ``(trace, config, cluster spec)`` -- byte-identical
across processes, worker counts and repetitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.synthetic import SyntheticBenchmark
from repro.cluster.cloud import Cloud
from repro.cluster.failures import FailureInjector
from repro.core.backends import create_backend
from repro.core.baseimage import build_base_image
from repro.core.repository import CheckpointRepository
from repro.core.strategy import Deployment
from repro.scenarios.fault_tolerance import fault_tolerant_cluster
from repro.scenarios.workloads import split_approach
from repro.service.admission import GRANTED, AdmissionConfig, AdmissionQueue
from repro.service.slo import ServiceReport, TenantStats
from repro.service.trace import Job, ServiceTrace
from repro.util.config import GRAPHENE, ClusterSpec
from repro.util.errors import (
    CheckpointError,
    ConfigurationError,
    FailureInjected,
    RestartError,
    SimulationError,
    StorageError,
)
from repro.util.units import MB

#: job failures the driver absorbs (everything a crashed node can cause,
#: including storage reads against chunks a dead provider took with it)
_RECOVERABLE = (FailureInjected, SimulationError, CheckpointError, RestartError, StorageError)


@dataclass(frozen=True)
class ServiceConfig:
    """How the driver serves one trace (everything but the trace itself)."""

    #: checkpoint approach of every tenant (``<backend>-app``/``-blcr``/``qcow2-full``)
    approach: str = "BlobCR-app"
    instances_per_tenant: int = 1
    processes_per_instance: int = 1
    #: synthetic per-process buffer each checkpoint persists
    buffer_bytes: int = 4 * MB
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: mean time between injected node failures (0 disables injection)
    mtbf_s: float = 0.0

    def validate(self) -> None:
        split_approach(self.approach)  # raises on unknown approaches
        if self.instances_per_tenant < 1 or self.processes_per_instance < 1:
            raise ConfigurationError("instances and processes per tenant must be >= 1")
        if self.buffer_bytes <= 0:
            raise ConfigurationError(f"buffer size must be positive, got {self.buffer_bytes}")
        if self.mtbf_s < 0:
            raise ConfigurationError(f"MTBF must be >= 0, got {self.mtbf_s}")
        self.admission.validate()


@dataclass
class _Tenant:
    """Driver-internal per-tenant state."""

    stats: TenantStats
    jobs: List[Job]
    deployment: Optional[Deployment] = None
    bench: Optional[SyntheticBenchmark] = None
    last_checkpoint: Optional[object] = None
    #: the tenant can no longer make progress (deploy turned away, or an
    #: unrecoverable failure); remaining jobs are skipped
    dead: bool = False


class ServiceDriver:
    """Runs one validated trace against one shared cloud."""

    def __init__(self, cloud: Cloud, trace: ServiceTrace, config: ServiceConfig):
        config.validate()
        trace.validate()
        self.cloud = cloud
        self.trace = trace
        self.config = config
        self.backend, self.level = split_approach(config.approach)
        admission = config.admission
        self.boot = AdmissionQueue(
            cloud.env,
            admission.boot_slots,
            policy=admission.policy,
            max_queue=admission.max_queue,
            timeout_s=admission.timeout_s,
            name="boot-slots",
        )
        self.repo_slots = AdmissionQueue(
            cloud.env,
            admission.repo_slots,
            policy=admission.policy,
            max_queue=admission.max_queue,
            timeout_s=admission.timeout_s,
            name="repo-bandwidth",
        )
        self.injector = FailureInjector(cloud, seed=("service", config.mtbf_s))
        self._repository: Optional[CheckpointRepository] = None
        self._base_image = None
        self._base_blob_id: Optional[int] = None
        self._tenants: Dict[str, _Tenant] = {
            name: _Tenant(stats=TenantStats(name=name), jobs=jobs)
            for name, jobs in trace.by_tenant().items()
        }

    # -- public entry ------------------------------------------------------------------

    def run(self) -> ServiceReport:
        """Serve the whole trace; returns the SLO report."""
        if self.config.mtbf_s > 0:
            self.injector.poisson_failures(
                self.config.mtbf_s, horizon=self.trace.end_time + 30.0
            )

        def main():
            yield from self._stage_base_image()
            procs = [
                self.cloud.process(self._serve_tenant(tenant), name=f"tenant:{name}")
                for name, tenant in self._tenants.items()
            ]
            yield self.cloud.env.all_of(procs)

        self.cloud.run(self.cloud.process(main(), name="service-driver"))
        return ServiceReport(
            tenants={name: tenant.stats for name, tenant in self._tenants.items()},
            duration_s=self.cloud.now,
            injected_failures=len(self.injector.history),
        )

    # -- shared infrastructure ---------------------------------------------------------

    def _stage_base_image(self):
        """Simulation process: stage the base image into the shared repository.

        Providers stage images once; BlobCR tenants then boot, snapshot and
        restore against this one repository (sharing its real bandwidth).
        Non-BlobCR backends keep their per-tenant storage (each tenant's
        PVFS upload is part of its deploy, as in the baseline figures).
        """
        if self.backend.lower() != "blobcr":
            return
        self._repository = CheckpointRepository(self.cloud)
        self._base_image = build_base_image(self.cloud.spec)
        # Stage from a service node when the cloud has one: image staging is
        # provider infrastructure, and service nodes are outside the failure
        # injector's blast radius (it fail-stops compute nodes only).
        stagers = self.cloud.service_nodes or self.cloud.compute_nodes
        uploader = stagers[0].name
        self._base_blob_id = yield from self._repository.upload_base_image(
            uploader, self._base_image, tag="base-image"
        )

    def _make_deployment(self, name: str) -> Deployment:
        options: Dict[str, object] = {"instance_prefix": name}
        if self._repository is not None:
            options["repository"] = self._repository
            options["base_image"] = self._base_image
        deployment = create_backend(self.backend, self.cloud, **options)
        if self._base_blob_id is not None:
            # The staged image is already in the shared repository; the
            # deployment must not upload it again.
            deployment.base_blob_id = self._base_blob_id
        return deployment

    # -- per-tenant serving ------------------------------------------------------------

    def _serve_tenant(self, tenant: _Tenant):
        """Simulation process: walk one tenant's jobs in submission order.

        Jobs are open-loop *submissions*: a job whose time has come while
        the tenant's previous job is still running starts right after it
        (the tenant itself is a serial client; concurrency happens across
        tenants).  A dead tenant skips its remaining jobs.
        """
        for job in tenant.jobs:
            if tenant.dead:
                tenant.stats.skipped += 1
                continue
            if self.cloud.now < job.at:
                yield self.cloud.env.timeout(job.at - self.cloud.now)
            try:
                yield from self._execute(tenant, job)
            except _RECOVERABLE:
                tenant.stats.failures += 1
                yield from self._recover(tenant)

    def _execute(self, tenant: _Tenant, job: Job):
        if job.kind == "deploy":
            yield from self._deploy(tenant)
        elif job.kind == "checkpoint":
            yield from self._checkpoint(tenant)
        elif job.kind == "restart":
            yield from self._restart(tenant)
        else:  # kill
            if tenant.deployment is not None:
                tenant.deployment.kill_all()
            tenant.stats.completed += 1
            tenant.dead = True

    def _admit(self, tenant: _Tenant, queue: AdmissionQueue, kind: str):
        """Simulation process: claim a slot; returns the ticket or ``None``."""
        stats = tenant.stats
        stats.submitted += 1
        ticket = queue.submit(stats.name, kind)
        outcome = yield ticket.ready
        if outcome != GRANTED:
            if outcome == "rejected":
                stats.rejected += 1
            else:
                stats.timed_out += 1
            return None
        stats.queue_waits.append(ticket.wait_s)
        return ticket

    def _deploy(self, tenant: _Tenant):
        ticket = yield from self._admit(tenant, self.boot, "deploy")
        if ticket is None:
            # A tenant that was never admitted has nothing to serve.
            tenant.dead = True
            return
        try:
            deployment = self._make_deployment(tenant.stats.name)
            started = self.cloud.now
            try:
                yield from deployment.deploy(
                    self.config.instances_per_tenant,
                    processes_per_instance=self.config.processes_per_instance,
                )
            except CheckpointError:
                # Out of unreserved compute nodes: admission bounds boot
                # *concurrency*, node capacity is a separate (harder) limit.
                tenant.stats.rejected += 1
                tenant.dead = True
                return
            tenant.deployment = deployment
            tenant.bench = SyntheticBenchmark(
                deployment,
                self.config.buffer_bytes,
                seed=("service", tenant.stats.name),
                level=self.level,
            )
            tenant.stats.deploy_latencies.append(self.cloud.now - started)
            tenant.stats.completed += 1
        finally:
            self.boot.release(ticket)

    def _checkpoint(self, tenant: _Tenant):
        if tenant.bench is None:
            tenant.stats.skipped += 1
            return
        ticket = yield from self._admit(tenant, self.repo_slots, "checkpoint")
        if ticket is None:
            return
        try:
            tenant.bench.fill_buffers()
            started = self.cloud.now
            tenant.last_checkpoint = yield from tenant.bench.checkpoint()
            tenant.stats.checkpoint_latencies.append(self.cloud.now - started)
            tenant.stats.completed += 1
        finally:
            self.repo_slots.release(ticket)

    def _restart(self, tenant: _Tenant):
        if tenant.bench is None or tenant.last_checkpoint is None:
            tenant.stats.skipped += 1
            return
        ticket = yield from self._admit(tenant, self.boot, "restart")
        if ticket is None:
            return
        try:
            started = self.cloud.now
            yield from tenant.bench.restart(tenant.last_checkpoint)
            tenant.stats.restart_latencies.append(self.cloud.now - started)
            tenant.stats.completed += 1
        finally:
            self.boot.release(ticket)

    def _recover(self, tenant: _Tenant):
        """Simulation process: one recovery attempt after a failed job.

        Mirrors the fault-tolerance driver's rollback: restart from the
        latest durable checkpoint.  A tenant without one (or whose recovery
        fails too) is killed -- its remaining jobs count as skipped.
        """
        if tenant.bench is None or tenant.last_checkpoint is None:
            self._terminate(tenant)
            return
        tenant.stats.rollbacks += 1
        ticket = yield from self._admit(tenant, self.boot, "recovery")
        if ticket is None:
            self._terminate(tenant)
            return
        try:
            started = self.cloud.now
            yield from tenant.bench.restart(tenant.last_checkpoint)
            tenant.stats.restart_latencies.append(self.cloud.now - started)
        except _RECOVERABLE:
            tenant.stats.failures += 1
            self._terminate(tenant)
        finally:
            self.boot.release(ticket)

    def _terminate(self, tenant: _Tenant) -> None:
        if tenant.deployment is not None:
            try:
                tenant.deployment.kill_all()
            except SimulationError:  # pragma: no cover - defensive
                pass
        tenant.dead = True


# -- the one-call entry point ----------------------------------------------------------


def sized_spec(
    spec: Optional[ClusterSpec],
    tenants: int,
    instances_per_tenant: int,
    mtbf_s: float = 0.0,
) -> ClusterSpec:
    """Grow ``spec`` so the trace fits: tenant hosts + restart headroom.

    Restarts need spare nodes (the paper restarts every instance on a
    *different* node), so the pool carries ~25% headroom over the tenant
    hosts.
    With failure injection on, the cluster is the fault-tolerance scenario's
    (a single crashed provider does not take the only copy of a chunk with it).
    """
    spec = spec or GRAPHENE
    hosts = tenants * instances_per_tenant
    needed = hosts + max(4, hosts // 4)
    if needed > spec.compute_nodes:
        spec = spec.scaled(compute_nodes=needed)
    return fault_tolerant_cluster(spec) if mtbf_s > 0 else spec


def run_service(
    trace: ServiceTrace,
    config: Optional[ServiceConfig] = None,
    spec: Optional[ClusterSpec] = None,
) -> ServiceReport:
    """Build a fittingly sized cloud and serve ``trace`` on it.

    The single entry point behind both the ``mtc`` scenario cells and
    ``Session.serve`` -- sharing it is what makes their reports
    byte-identical for the same configuration.
    """
    config = config or ServiceConfig()
    spec = sized_spec(
        spec,
        tenants=len(trace.tenants),
        instances_per_tenant=config.instances_per_tenant,
        mtbf_s=config.mtbf_s,
    )
    cloud = Cloud(spec)
    driver = ServiceDriver(cloud, trace, config)
    return driver.run()
