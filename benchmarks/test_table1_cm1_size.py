"""Benchmark regenerating Table 1 (CM1 per disk-snapshot size)."""

from conftest import attach_rows

from repro.api import Session


def test_table1_cm1_snapshot_size(benchmark):
    result = benchmark.pedantic(lambda: Session().run_scenario("table1"), rounds=1, iterations=1)
    attach_rows(benchmark, result)
    print()
    print(result.to_table())
    sizes = {row["approach"]: row["snapshot_MB"] for row in result.rows}
    # Process-level (BLCR) snapshots are much larger than application-level
    # ones: BLCR dumps everything the processes allocated.
    assert sizes["BlobCR-blcr"] >= sizes["BlobCR-app"] * 1.5
    assert sizes["qcow2-disk-blcr"] >= sizes["qcow2-disk-app"] * 1.5
    # BlobCR's 256 KiB block granularity costs at most a few percent extra
    # storage compared with qcow2's finer clusters (Table 1 / Section 4.3.1).
    assert sizes["BlobCR-app"] >= sizes["qcow2-disk-app"] - 0.5
    assert sizes["BlobCR-app"] <= sizes["qcow2-disk-app"] * 1.15
