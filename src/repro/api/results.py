"""Typed result objects returned by the :class:`~repro.api.session.Session`.

The facade never hands callers raw generators or simulation internals: every
operation returns one of these immutable records.  Where a record wraps a
live engine object (the :class:`~repro.core.strategy.GlobalCheckpoint`
behind a :class:`CheckpointResult`), the wrapped object is exposed as an
explicit ``handle`` so advanced callers can drop down a layer without the
facade depending on them doing so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.migration import MigrationResult
from repro.core.strategy import GlobalCheckpoint
from repro.scenarios.results import ExperimentResult
from repro.service.slo import ServiceReport


@dataclass(frozen=True)
class DeployResult:
    """Outcome of ``session.deploy(backend, n=...)``."""

    #: canonical (lowercase) name of the backend that was deployed
    backend: str
    #: ids of the deployed instances, in deployment order
    instance_ids: Tuple[str, ...]
    #: simulated seconds from request to every instance booted
    duration_s: float
    #: persistent storage consumed after deployment (base image)
    storage_used_bytes: int

    @property
    def instances(self) -> int:
        """Number of deployed instances."""
        return len(self.instance_ids)


@dataclass(frozen=True)
class CheckpointResult:
    """Outcome of ``session.checkpoint()``: one globally consistent snapshot."""

    #: 1-based index of the global checkpoint within its deployment
    index: int
    #: simulated seconds the globally consistent snapshot took
    duration_s: float
    #: incremental snapshot bytes persisted, summed over all instances
    total_snapshot_bytes: int
    #: largest per-instance snapshot (the paper's headline size metric)
    max_snapshot_bytes: int
    instance_ids: Tuple[str, ...]
    #: the engine-level checkpoint object (restart target)
    handle: GlobalCheckpoint = field(repr=False)


@dataclass(frozen=True)
class RestartResult:
    """Outcome of ``session.restart(...)``: every instance back up."""

    #: simulated seconds from kill to every instance serving again
    duration_s: float
    #: bytes actually faulted in during the (lazy) restore
    bytes_restored: int
    #: ids of the restarted instances
    instance_ids: Tuple[str, ...]


@dataclass(frozen=True)
class MigrateResult:
    """Outcome of ``session.migrate(...)``: one live migration."""

    #: id of the migrated instance
    instance_id: str
    #: migration algorithm that ran (``pre-copy`` / ``post-copy`` /
    #: ``stop-and-copy``)
    mode: str
    source_node: str
    target_node: str
    #: simulated seconds the guest was unavailable (suspend to resume)
    downtime_s: float
    #: simulated seconds of the whole migration, first round to last block
    total_s: float
    #: iterative pre-copy rounds that ran (0 for post-copy: every residue
    #: block moves after the switchover)
    rounds: int
    #: every byte the migration pushed across the fabric
    total_bytes_moved: int
    #: post-copy blocks served on demand from the source after the switchover
    remote_faults: int
    #: the source died mid-migration and the instance was restarted from the
    #: last durable snapshot instead of completing the live handover
    rolled_back: bool
    #: the engine-level result (per-round byte counts, fault accounting)
    handle: MigrationResult = field(repr=False)


@dataclass(frozen=True)
class RunReport:
    """Outcome of ``session.run_scenario(name, ...)``.

    ``rows`` are byte-identical to what the CLI prints/serialises for the
    same scenario and configuration -- the facade drives the very same
    registry, cell enumeration and merge machinery.
    """

    experiment: str
    description: str
    rows: List[Dict[str, Any]]
    #: executed cell keys, in canonical enumeration order
    cell_keys: Tuple[str, ...]
    #: host wall-clock time of the cell-execution phase, seconds
    wall_time_s: float
    #: total simulated time across the executed cells, seconds
    sim_time_s: float
    workers: int
    paper_scale: bool

    def result(self) -> ExperimentResult:
        """The rows as the scenario layer's :class:`ExperimentResult`."""
        return ExperimentResult(
            experiment=self.experiment, description=self.description, rows=list(self.rows)
        )

    def to_table(self) -> str:
        """Render the rows exactly as ``blobcr-repro`` prints them."""
        return self.result().to_table()


@dataclass(frozen=True)
class TraceReport:
    """Outcome of ``session.trace(name, ...)``: one deterministic trace.

    ``artifact`` is the ``blobcr-repro/artifact`` v2 document of the traced
    run without its ``host`` section (validated; byte-identical across runs
    of the same cells and across worker counts once serialised), ``rollups``
    the per-span-name sim-time totals merged over all traced cells.
    """

    #: the validated artifact document (body only)
    artifact: Dict[str, Any] = field(repr=False)
    #: merged span rollups: name -> {count, total_sim_s, max_sim_s}
    rollups: Dict[str, Dict[str, Any]]
    #: traced cell keys, in canonical enumeration order
    cell_keys: Tuple[str, ...]

    @property
    def cells(self) -> List[Dict[str, Any]]:
        """The per-cell records (key, payload, counters, trace, rollups, ...)."""
        return self.artifact["cells"]

    def chrome(self) -> Dict[str, Any]:
        """The trace as Chrome trace-event JSON (Perfetto-loadable)."""
        from repro.obs import chrome_trace

        return chrome_trace(self.cells)


@dataclass(frozen=True)
class ServeReport:
    """Outcome of ``session.serve(...)``: one multi-tenant service run.

    ``aggregate`` is the pooled SLO row (p50/p99/p999 checkpoint/restart
    latency, queue wait, rejection rate, Jain fairness) and ``tenant_rows``
    the per-tenant rows, both byte-identical to the ``mtc`` scenario's for
    the same trace and configuration -- ``serve`` and the scenario cells
    share one driver entry point (:func:`repro.service.driver.run_service`).
    """

    #: tenants the trace carried
    tenants: int
    #: simulated seconds the whole trace took to serve
    duration_s: float
    #: the pooled SLO row over every tenant
    aggregate: Dict[str, Any]
    #: one SLO row per tenant, tenant-name order
    tenant_rows: List[Dict[str, Any]]
    #: failures injected mid-trace
    injected_failures: int
    #: the service layer's full report (per-tenant sample lists)
    handle: ServiceReport = field(repr=False)
