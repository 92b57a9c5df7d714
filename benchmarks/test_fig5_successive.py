"""Benchmark regenerating Figure 5 (successive checkpoints of one VM)."""

from conftest import attach_rows

from repro.api import Session


def test_fig5_successive_checkpoints(benchmark):
    result = benchmark.pedantic(lambda: Session().run_scenario("fig5"), rounds=1, iterations=1)
    attach_rows(benchmark, result)
    print()
    print(result.to_table())
    first, last = result.rows[0], result.rows[-1]
    # BlobCR: flat completion time (incremental snapshots only).
    assert last["BlobCR-app time_s"] <= first["BlobCR-app time_s"] * 1.15
    # qcow2-disk: completion time grows (the copied file keeps growing).
    assert last["qcow2-disk-app time_s"] >= first["qcow2-disk-app time_s"] * 1.8
    # qcow2-full: also grows (internal snapshots accumulate in the image).
    assert last["qcow2-full time_s"] >= first["qcow2-full time_s"] * 1.8
    # Storage: BlobCR grows linearly; qcow2-disk accumulates duplicates and
    # grows faster than linearly in total.
    blob_growth = last["BlobCR-app storage_MB"] - first["BlobCR-app storage_MB"]
    qcow_growth = last["qcow2-disk-app storage_MB"] - first["qcow2-disk-app storage_MB"]
    assert qcow_growth > blob_growth * 2
