"""Benchmarks regenerating the beyond-paper scenarios (ft, contention).

The fault-tolerance sweep is the headline: failures are actually injected
and recovered from, so the benchmark asserts the recovery invariants the
paper claims (rollback to the last durable checkpoint, deterministic
restore) on top of the perf shapes.
"""

from conftest import attach_rows

from repro.api import Session


def test_ft_fault_tolerance_sweep(benchmark):
    result = benchmark.pedantic(lambda: Session().run_scenario("ft"), rounds=1, iterations=1)
    attach_rows(benchmark, result)
    print()
    print(result.to_table())
    rows = {row["mtbf_s"]: row for row in result.rows}
    nofail, faulty = rows["none"], rows[150.0]
    # Every rollback restored the last durable checkpoint's exact state.
    assert all(row["recovered_ok"] for row in result.rows)
    # The fault trace at MTBF 150 actually injected failures: every approach
    # rolled back at least once and paid for the lost work.
    for approach in ("BlobCR-app", "qcow2-disk-app", "qcow2-full"):
        assert faulty[f"{approach} rollbacks"] >= 1
        assert faulty[f"{approach} lost_s"] > 0
        assert faulty[f"{approach} total_s"] > nofail[f"{approach} total_s"]
        assert nofail[f"{approach} rollbacks"] == 0
    # Full-VM snapshots are the most expensive way to survive the same trace.
    assert faulty["qcow2-full total_s"] > faulty["BlobCR-app total_s"]


def test_contention_checkpoint_degradation(benchmark):
    result = benchmark.pedantic(
        lambda: Session().run_scenario("contention"), rounds=1, iterations=1
    )
    attach_rows(benchmark, result)
    print()
    print(result.to_table())
    by_flows = {row["flows"]: row for row in result.rows}
    # Background tenants on the oversubscribed fabric slow every approach.
    for approach in ("BlobCR-app", "qcow2-disk-app"):
        assert by_flows[32][approach] > by_flows[0][approach]
    # The contention-free ordering (BlobCR checkpoints faster) survives load.
    assert by_flows[32]["BlobCR-app"] < by_flows[32]["qcow2-disk-app"]
