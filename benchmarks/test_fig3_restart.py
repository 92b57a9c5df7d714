"""Benchmark regenerating Figure 3 (restart time vs number of hosts)."""

from conftest import attach_rows

from repro.api import Session


def test_fig3_restart_time(benchmark, paper_scale):
    def run():
        return Session().run_scenario("fig3", paper_scale=paper_scale)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, result)
    print()
    print(result.to_table())
    # Shape assertions: BlobCR restarts are never meaningfully slower than
    # qcow2-disk, and the full-VM-snapshot restart degrades with scale much
    # faster than BlobCR's (the trend that erases its no-reboot advantage at
    # the paper's 120-node concurrency; the crossover itself only appears at
    # paper scale, see EXPERIMENTS.md).
    for row in result.rows:
        assert row["BlobCR-app"] <= row["qcow2-disk-app"] * 1.1
        assert row["BlobCR-blcr"] <= row["qcow2-disk-blcr"] * 1.1
    for buffer_mb in {row["buffer_MB"] for row in result.rows}:
        series = [r for r in result.rows if r["buffer_MB"] == buffer_mb]
        first, last = series[0], series[-1]
        full_growth = last["qcow2-full"] / max(first["qcow2-full"], 1e-9)
        blob_growth = last["BlobCR-app"] / max(first["BlobCR-app"], 1e-9)
        assert full_growth >= blob_growth
    if paper_scale:
        big = [r for r in result.rows if r["buffer_MB"] == 200]
        assert any(r["qcow2-full"] >= r["BlobCR-app"] for r in big)
