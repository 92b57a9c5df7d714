"""Benchmark regenerating Figure 6 (CM1 checkpoint time vs process count)."""

from conftest import attach_rows

from repro.api import Session


def test_fig6_cm1_checkpoint_time(benchmark, paper_scale):
    def run():
        return Session().run_scenario("fig6", paper_scale=paper_scale)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, result)
    print()
    print(result.to_table())
    for row in result.rows:
        # BlobCR outperforms qcow2-disk for both checkpointing levels, and
        # process-level (BLCR) checkpoints cost more than application-level
        # ones (they move much more data).
        assert row["BlobCR-app"] <= row["qcow2-disk-app"] * 1.05
        assert row["BlobCR-blcr"] <= row["qcow2-disk-blcr"] * 1.05
        assert row["BlobCR-blcr"] >= row["BlobCR-app"] * 0.9
    # The gap grows with the number of processes (scalability claim).
    first, last = result.rows[0], result.rows[-1]
    gap_first = first["qcow2-disk-blcr"] - first["BlobCR-blcr"]
    gap_last = last["qcow2-disk-blcr"] - last["BlobCR-blcr"]
    assert gap_last >= gap_first * 0.9
