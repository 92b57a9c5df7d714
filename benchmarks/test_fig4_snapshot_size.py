"""Benchmark regenerating Figure 4 (snapshot size per VM instance)."""

from conftest import attach_rows

from repro.api import Session


def test_fig4_snapshot_size(benchmark):
    result = benchmark.pedantic(lambda: Session().run_scenario("fig4"), rounds=1, iterations=1)
    attach_rows(benchmark, result)
    print()
    print(result.to_table())
    for row in result.rows:
        buffer_mb = row["buffer_MB"]
        # Disk-only snapshots: buffer + a few MB of guest-OS noise.
        assert buffer_mb <= row["BlobCR-app"] <= buffer_mb + 20
        assert buffer_mb <= row["qcow2-disk-app"] <= buffer_mb + 20
        # BlobCR's block-granular COW never undercuts qcow2's finer clusters.
        assert row["BlobCR-app"] >= row["qcow2-disk-app"] - 0.5
        # Process-level dumps of the synthetic benchmark add only BLCR's small
        # context overhead (its state is essentially the data buffer).
        assert abs(row["BlobCR-blcr"] - row["BlobCR-app"]) <= 5
        # Full VM snapshots carry the additional RAM/device state (~118 MB).
        assert row["qcow2-full"] >= row["BlobCR-app"] + 100
    # The full-snapshot overhead is roughly constant across buffer sizes.
    overheads = [row["qcow2-full"] - row["BlobCR-app"] for row in result.rows]
    assert max(overheads) - min(overheads) <= 30
