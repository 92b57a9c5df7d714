"""Beyond-paper scenario: multi-tenant checkpointing as a service (``mtc``).

The paper measures one tenant on an idle testbed; a provider runs *many*
tenants against one long-lived cloud.  This scenario feeds an open-loop job
trace (tenant arrivals, checkpoints, restarts, departures -- see
:mod:`repro.service.trace`) through the service driver
(:mod:`repro.service.driver`): bounded boot and repository-snapshot slots
admit jobs under a FIFO or fair policy, every BlobCR tenant shares one
repository and one staged base image, and the SLO report aggregates exact
p50/p99/p999 checkpoint/restart latency, queue wait, rejection rate and
Jain fairness per cell.

Axes: tenant count, arrival rate (tenants/s) and admission policy.  The
trace is synthesized per cell from a fixed seed -- the same tenants and
jobs hit both policies, so the fairness column isolates the scheduling
decision.  Everything else (arrival mode, trace file, admission depths,
failure MTBF, background flows, ...) is a scenario *parameter*: a
single-valued axis outside the cell key, overridable run-wide via
``--override mtc.<name>=<value>`` and validated like any other override.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.runner.registry import register_scenario
from repro.scenarios.results import merge_rows
from repro.scenarios.spec import Axis, ScenarioSpec
from repro.service.admission import AdmissionConfig
from repro.service.driver import ServiceConfig, run_service
from repro.service.trace import ServiceTrace, load_trace, synthesize_trace
from repro.util.config import ClusterSpec
from repro.util.errors import ConfigurationError
from repro.util.units import MB

_DESCRIPTION = (
    "multi-tenant checkpointing service: p50/p99/p999 checkpoint/restart "
    "latency, queue wait, rejection rate and Jain fairness per "
    "(tenants, arrival rate, admission policy) cell"
)

#: every synthesized mtc trace derives from this seed, so each cell is a
#: pure function of its key and the two policies judge identical job streams
TRACE_SEED = "mtc"


def _truncated(trace: ServiceTrace, duration: float) -> ServiceTrace:
    """Drop jobs submitted after ``duration`` (the run-length cap)."""
    jobs = tuple(job for job in trace.jobs if job.at <= duration)
    if not jobs:
        raise ConfigurationError(
            f"duration cap {duration}s truncates away every job of the trace "
            f"(first submission at {trace.jobs[0].at:.3f}s)"
        )
    capped = ServiceTrace(jobs=jobs).canonical()
    capped.validate()
    return capped


def run_mtc_cell(
    tenants: int,
    rate: float,
    policy: str,
    mode: str = "poisson",
    trace_path: str = "",
    duration: float = 0.0,
    checkpoints: int = 2,
    interval: float = 15.0,
    restarts: int = 1,
    hold: float = 10.0,
    approach: str = "BlobCR-app",
    instances: int = 1,
    buffer_bytes: int = 4 * MB,
    boot_slots: int = 4,
    repo_slots: int = 8,
    max_queue: int = 64,
    timeout: float = 0.0,
    flows: int = 0,
    mtbf: float = 0.0,
    spec: Optional[ClusterSpec] = None,
) -> Dict[str, Any]:
    """Run one (tenants, rate, policy) service cell."""
    if trace_path:
        trace = load_trace(trace_path)
    else:
        trace = synthesize_trace(
            tenants,
            rate,
            mode=mode,
            checkpoints=checkpoints,
            interval_s=interval,
            restarts=restarts,
            hold_s=hold,
            seed=TRACE_SEED,
        )
    if duration > 0:
        trace = _truncated(trace, duration)
    config = ServiceConfig(
        approach=approach,
        instances_per_tenant=instances,
        buffer_bytes=buffer_bytes,
        admission=AdmissionConfig(
            policy=policy,
            boot_slots=boot_slots,
            repo_slots=repo_slots,
            max_queue=max_queue,
            timeout_s=timeout,
        ),
        background_flows=flows,
        mtbf_s=mtbf,
        seed=TRACE_SEED,
    )
    report = run_service(trace, config, spec=spec)
    row: Dict[str, Any] = {"tenants": tenants, "rate": rate, "policy": policy}
    aggregate = report.aggregate_row()
    aggregate.pop("tenants")  # the axis value is authoritative in the row
    row.update(aggregate)
    row["tenant_rows"] = report.tenant_rows()
    row["sim_time_s"] = report.duration_s
    return row


SCENARIO = ScenarioSpec(
    name="mtc",
    description=_DESCRIPTION,
    axes=(
        Axis("tenants", (8, 100), paper_values=(256, 1024)),
        # Arrivals must outlive the boot-queue drain for the policies to
        # differ: at high rates every deploy is queued before any restart,
        # and FIFO and fair degenerate to the same grant order.
        Axis("rate", (1.0,), paper_values=(2.0,), fmt=lambda value: f"{value:g}"),
        Axis("policy", ("fifo", "fair")),
        # scenario parameters: single-valued, outside the cell key
        Axis("mode", ("poisson",)),
        Axis("trace_path", ("",)),
        Axis("duration", (0.0,)),
        Axis("checkpoints", (2,)),
        Axis("interval", (15.0,)),
        Axis("restarts", (1,)),
        Axis("hold", (10.0,)),
        Axis("approach", ("BlobCR-app",)),
        Axis("instances", (1,)),
        Axis("buffer_bytes", (4 * MB,)),
        Axis("boot_slots", (4,)),
        Axis("repo_slots", (8,)),
        Axis("max_queue", (64,)),
        Axis("timeout", (0.0,)),
        Axis("flows", (0,)),
        Axis("mtbf", (0.0,)),
    ),
    key_axes=("tenants", "rate", "policy"),
    cell_func=run_mtc_cell,
    # one SLO row per cell; the per-tenant rows stay in the payload
    merge=merge_rows(
        "mtc",
        _DESCRIPTION,
        row_key=lambda p: {"tenants": p["tenants"], "rate": p["rate"], "policy": p["policy"]},
        columns=lambda p: {k: v for k, v in p.items() if k != "tenant_rows"},
    ),
)

register_scenario(SCENARIO)
