"""The multi-tenant serving layer: a long-lived cloud driven by an event trace.

Every other scenario in this repository is one tenant doing one closed-loop
thing against a freshly built cloud.  The paper's target environment is the
opposite: an IaaS provider region serving many tenants concurrently, with
jobs arriving open-loop (the arrival process does not wait for previous jobs
to finish).  This package models that regime:

``trace``
    The tenant/job model: a schema-versioned JSONL trace format plus
    synthetic open-loop generators (Poisson and deterministic-rate
    arrivals) with deterministic *per-tenant* seeding -- a tenant's job
    schedule depends only on its name and the trace seed, never on how
    many other tenants exist or in which order they are enumerated.
``admission``
    The admission controller: bounded boot slots and repository-bandwidth
    slots with FIFO or fair (least-granted-first) queueing, bounded queues
    with synchronous rejection, and per-ticket grant timeouts.
``driver``
    :class:`~repro.service.driver.ServiceDriver` runs a job trace against
    one shared :class:`~repro.cluster.cloud.Cloud`: per-tenant deployments
    share the checkpoint repository (and hence its bandwidth), and failures
    can be injected mid-trace.
``slo``
    SLO accounting: per-tenant and aggregate p50/p99/p999 checkpoint and
    restart latency, queue wait, rejection rate and Jain's fairness index,
    computed with the exact nearest-rank quantiles of
    :mod:`repro.util.stats`.
``traffic``
    The background bulk-flow generator of the ``contention`` and ``mig``
    scenarios.

The ``mtc`` scenario (:mod:`repro.scenarios.service`) and
``Session.serve`` (:mod:`repro.api.session`) are the two public surfaces
over this package; both produce byte-identical results for the same
configuration, at any worker count.
"""

from repro.service.admission import AdmissionConfig, AdmissionQueue, Ticket
from repro.service.driver import ServiceConfig, ServiceDriver, run_service
from repro.service.slo import SLO_QUANTILES, ServiceReport, TenantStats
from repro.service.trace import (
    JOB_KINDS,
    TRACE_SCHEMA,
    TRACE_VERSION,
    Job,
    ServiceTrace,
    load_trace,
    loads_trace,
    dumps_trace,
    synthesize_trace,
    tenant_name,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionQueue",
    "Job",
    "JOB_KINDS",
    "SLO_QUANTILES",
    "ServiceConfig",
    "ServiceDriver",
    "ServiceReport",
    "ServiceTrace",
    "TenantStats",
    "Ticket",
    "TRACE_SCHEMA",
    "TRACE_VERSION",
    "dumps_trace",
    "load_trace",
    "loads_trace",
    "run_service",
    "synthesize_trace",
    "tenant_name",
]
