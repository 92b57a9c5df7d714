"""SLO accounting: per-tenant samples folded into percentile result rows.

A service run produces *distributions*, not single means: every admitted
checkpoint/restart contributes a latency sample and every granted ticket a
queue-wait sample.  This module aggregates them with the exact nearest-rank
quantiles of :mod:`repro.util.stats` (the same helper the tracer's
histograms use), so SLO rows are byte-stable across runs, worker counts and
machines.

Two row shapes exist:

* **per-tenant rows** (:meth:`ServiceReport.tenant_rows`): one row per
  tenant with its own percentiles and counters;
* **the aggregate row** (:meth:`ServiceReport.aggregate_row`): pooled
  percentiles over every tenant's samples, the overall rejection rate, and
  Jain's fairness index over per-tenant mean checkpoint latency (1.0 when
  every tenant sees the same latency).

Metrics with no samples (e.g. restart percentiles when every restart was
rejected) report 0.0 -- a recorded zero keeps the row schema fixed, which
the benchmark baseline and the `mtc` merge rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.util.stats import exact_quantile, jain_fairness, quantile_label

#: the SLO percentiles of every latency/wait column
SLO_QUANTILES = (0.50, 0.99, 0.999)


def slo_columns(prefix: str, samples: Sequence[float]) -> Dict[str, float]:
    """``{prefix}_p50/p99/p999`` columns over ``samples`` (0.0 when empty)."""
    ordered = sorted(samples)
    columns: Dict[str, float] = {}
    for q in SLO_QUANTILES:
        label = f"{prefix}_{quantile_label(q)}"
        columns[label] = exact_quantile(ordered, q) if ordered else 0.0
    return columns


@dataclass
class TenantStats:
    """Everything one tenant accumulated over the run."""

    name: str
    #: jobs the trace submitted for this tenant
    submitted: int = 0
    #: jobs that ran to completion
    completed: int = 0
    #: tickets rejected synchronously (full queue or no capacity left)
    rejected: int = 0
    #: tickets that timed out waiting for a slot
    timed_out: int = 0
    #: jobs skipped because the tenant was not in a runnable state
    skipped: int = 0
    #: jobs aborted by an injected failure
    failures: int = 0
    #: recovery restarts forced by failures (not part of the trace)
    rollbacks: int = 0
    deploy_latencies: List[float] = field(default_factory=list)
    checkpoint_latencies: List[float] = field(default_factory=list)
    restart_latencies: List[float] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)

    @property
    def turned_away(self) -> int:
        return self.rejected + self.timed_out

    def mean_checkpoint_latency(self) -> float:
        if not self.checkpoint_latencies:
            return 0.0
        return math.fsum(self.checkpoint_latencies) / len(self.checkpoint_latencies)

    def row(self) -> Dict[str, Any]:
        """This tenant's SLO row."""
        row: Dict[str, Any] = {
            "tenant": self.name,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "timed_out": self.timed_out,
            "skipped": self.skipped,
            "failures": self.failures,
            "rollbacks": self.rollbacks,
        }
        row.update(slo_columns("checkpoint", self.checkpoint_latencies))
        row.update(slo_columns("restart", self.restart_latencies))
        row.update(slo_columns("queue_wait", self.queue_waits))
        row["rejection_rate"] = self.turned_away / self.submitted if self.submitted else 0.0
        return row


@dataclass
class ServiceReport:
    """Outcome of one service run: per-tenant stats plus the run envelope."""

    #: per-tenant statistics, keyed and ordered by tenant name
    tenants: Dict[str, TenantStats]
    #: simulated time the whole trace took
    duration_s: float
    #: failures injected mid-trace
    injected_failures: int = 0

    def tenant_rows(self) -> List[Dict[str, Any]]:
        return [self.tenants[name].row() for name in sorted(self.tenants)]

    def aggregate_row(self) -> Dict[str, Any]:
        """Pooled percentiles, rejection rate and fairness over all tenants."""
        stats = [self.tenants[name] for name in sorted(self.tenants)]
        checkpoint: List[float] = []
        restart: List[float] = []
        waits: List[float] = []
        submitted = completed = rejected = timed_out = failures = rollbacks = 0
        for tenant in stats:
            checkpoint.extend(tenant.checkpoint_latencies)
            restart.extend(tenant.restart_latencies)
            waits.extend(tenant.queue_waits)
            submitted += tenant.submitted
            completed += tenant.completed
            rejected += tenant.rejected
            timed_out += tenant.timed_out
            failures += tenant.failures
            rollbacks += tenant.rollbacks
        row: Dict[str, Any] = {
            "tenants": len(stats),
            "submitted": submitted,
            "completed": completed,
        }
        row.update(slo_columns("checkpoint", checkpoint))
        row.update(slo_columns("restart", restart))
        row.update(slo_columns("queue_wait", waits))
        row["rejection_rate"] = (rejected + timed_out) / submitted if submitted else 0.0
        served = [t.mean_checkpoint_latency() for t in stats if t.checkpoint_latencies]
        row["fairness"] = jain_fairness(served) if served else 1.0
        row["failures"] = failures
        row["rollbacks"] = rollbacks
        row["duration_s"] = self.duration_s
        return row
