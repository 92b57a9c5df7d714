"""Benchmark regenerating the multi-tenant checkpointing service sweep (mtc).

The sweep serves the same synthesized tenant trace under both admission
policies at two tenant counts, so the benchmark asserts the service-level
invariants on top of the perf record: every cell completes its jobs, the
SLO columns are populated, and the 100-tenant cells keep the service busy
enough that queue waits actually appear.
"""

from conftest import attach_rows

from repro.api import Session


def test_mtc_service_sweep(benchmark):
    result = benchmark.pedantic(lambda: Session().run_scenario("mtc"), rounds=1, iterations=1)
    attach_rows(benchmark, result)
    print()
    print(result.to_table())
    rows = {(row["tenants"], row["policy"]): row for row in result.rows}
    assert set(rows) == {(8, "fifo"), (8, "fair"), (100, "fifo"), (100, "fair")}
    for row in result.rows:
        # No failures were injected (mtbf is off by default).
        assert row["failures"] == 0 and row["rollbacks"] == 0
        # The SLO quantiles are real measurements, not empty-sample zeros.
        assert row["checkpoint_p50"] > 0
        assert row["restart_p50"] > 0
        assert 0 < row["fairness"] <= 1.0
        # Exact nearest-rank quantiles are monotone by construction.
        assert row["checkpoint_p50"] <= row["checkpoint_p99"] <= row["checkpoint_p999"]
    for policy in ("fifo", "fair"):
        # 8 tenants fit: every tenant's whole job stream completes
        # (deploy + 2 checkpoints + restart + kill) with nothing shed.
        assert rows[(8, policy)]["completed"] == 8 * 5
        assert rows[(8, policy)]["rejection_rate"] == 0.0
        # 100 tenants overflow the bounded boot queue: the admission layer
        # sheds load synchronously instead of buffering without bound.
        assert rows[(100, policy)]["rejection_rate"] > 0
        assert rows[(100, policy)]["completed"] < 100 * 5
        # 100 tenants through 4 boot slots must queue; 8 tenants barely do.
        assert (
            rows[(100, policy)]["queue_wait_p99"] > rows[(8, policy)]["queue_wait_p99"]
        )
    # Both policies serve the identical job trace -- only scheduling differs.
    for count in (8, 100):
        assert rows[(count, "fifo")]["submitted"] == rows[(count, "fair")]["submitted"]
