#!/usr/bin/env python3
"""Multi-tenant checkpointing as a service: FIFO vs fair admission.

The paper benchmarks one tenant on an idle testbed; a provider serves many
at once.  This example drives the service layer through the ``repro.api``
facade: 12 tenants arrive Poisson-wise over ~48 simulated seconds, deploy
through bounded boot slots, checkpoint through shared repository slots,
restart, and leave.  The same synthesized job trace is served twice — once
under FIFO admission, once under least-service-first (fair) — so the SLO
rows isolate the scheduling decision.

Run with:  python examples/multi_tenant.py
"""

from repro.api import Session
from repro.service import AdmissionConfig, ServiceConfig
from repro.util import format_duration


def serve(policy: str):
    # One Session per run: each owns a fresh simulated cloud.  The trace
    # synthesis seed is fixed, so both policies judge identical tenants.
    # Two boot slots for 12 tenants keeps the boot queue busy, and the
    # slow arrival rate makes late deploys contend with early tenants'
    # restarts -- the window where FIFO and fair actually diverge.
    config = ServiceConfig(admission=AdmissionConfig(policy=policy, boot_slots=2))
    return Session().serve(tenants=12, rate=0.25, policy=policy, config=config)


def main() -> None:
    reports = {policy: serve(policy) for policy in ("fifo", "fair")}

    print("multi-tenant checkpointing service: 12 tenants, one arrival per 4 s")
    for policy, report in reports.items():
        agg = report.aggregate
        print(f"  [{policy:4s}] served {report.tenants} tenants "
              f"in {format_duration(report.duration_s)} simulated")
        print(f"         jobs completed               : {agg['completed']}"
              f"  (admissions requested: {agg['submitted']})")
        print(f"         checkpoint p50 / p99 / p999  : "
              f"{agg['checkpoint_p50']:.2f} / {agg['checkpoint_p99']:.2f} / "
              f"{agg['checkpoint_p999']:.2f} s")
        print(f"         restart p50 / p99           : "
              f"{agg['restart_p50']:.2f} / {agg['restart_p99']:.2f} s")
        print(f"         queue wait p99              : {agg['queue_wait_p99']:.2f} s")
        print(f"         rejection rate              : {agg['rejection_rate']:.3f}")
        print(f"         Jain fairness               : {agg['fairness']:.4f}")

    # Determinism: the same trace and policy always produce the same rows.
    again = serve("fifo")
    assert again.aggregate == reports["fifo"].aggregate
    assert again.tenant_rows == reports["fifo"].tenant_rows
    print("  re-running fifo reproduced the rows byte-for-byte")

    # The slowest tenant's own row, from the per-tenant breakdown.
    slowest = max(
        reports["fair"].tenant_rows, key=lambda row: row["checkpoint_p99"]
    )
    print(f"  slowest tenant under fair admission: {slowest['tenant']} "
          f"(checkpoint p99 {slowest['checkpoint_p99']:.2f} s, "
          f"waited {slowest['queue_wait_p99']:.2f} s p99 in the queues)")


if __name__ == "__main__":
    main()
