"""Benchmark regenerating Figure 7 (dedup & compression ablation)."""

from conftest import attach_rows

from repro.api import Session


def test_fig7_dedup_ablation(benchmark):
    result = benchmark.pedantic(lambda: Session().run_scenario("fig7"), rounds=1, iterations=1)
    attach_rows(benchmark, result)
    print()
    print(result.to_table())
    first, last = result.rows[0], result.rows[-1]
    # Every snapshot of every mode restores byte-identical content, shared
    # chunks included.
    assert all(row["restored_ok"] for row in result.rows)
    # With dedup enabled, physical storage after N overlapping checkpoints is
    # strictly below the dedup-off run, i.e. the dedup ratio exceeds 1.
    assert last["dedup stored_MB"] < last["off stored_MB"]
    assert last["dedup ratio"] > 1.0
    # Compression shrinks the physical footprint further.
    assert last["zlib stored_MB"] < last["dedup stored_MB"]
    assert last["zlib ratio"] > last["dedup ratio"]
    # Once the index is warm, commits ship only the actually-changed content
    # and complete faster than the dedup-off commits.
    assert last["dedup time_s"] < last["off time_s"]
    # Storage growth per checkpoint: off re-stores the whole file, dedup only
    # the changed fraction (25% here).
    off_growth = last["off stored_MB"] - first["off stored_MB"]
    dedup_growth = last["dedup stored_MB"] - first["dedup stored_MB"]
    assert dedup_growth < off_growth / 2
