"""Benchmark regenerating Figure 2 (checkpoint time vs number of processes)."""

from conftest import attach_rows

from repro.api import Session


def test_fig2_checkpoint_time(benchmark, paper_scale):
    def run():
        return Session().run_scenario("fig2", paper_scale=paper_scale)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, result)
    print()
    print(result.to_table())
    # Shape assertions from the paper: BlobCR is never slower than the
    # qcow2-over-PVFS baselines and qcow2-full is the worst of the five;
    # the BlobCR advantage grows with the buffer size and the scale.
    for row in result.rows:
        assert row["BlobCR-app"] <= row["qcow2-disk-app"] * 1.05
        assert row["BlobCR-blcr"] <= row["qcow2-disk-blcr"] * 1.05
        assert row["qcow2-full"] >= row["BlobCR-app"]
    largest = [r for r in result.rows if r["buffer_MB"] == 200][-1]
    assert largest["qcow2-disk-app"] / largest["BlobCR-app"] >= 1.3
