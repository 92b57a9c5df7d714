"""Ablation benches for the design choices called out in DESIGN.md.

These go beyond the paper's figures: they vary one design parameter of
BlobCR at a time and report its effect, using the same harness as the main
experiments.
"""

import dataclasses

from conftest import attach_rows

from repro.scenarios.results import ExperimentResult
from repro.scenarios.workloads import run_synthetic_cell
from repro.util.config import GRAPHENE
from repro.util.units import KiB, MB


def test_ablation_stripe_size(benchmark):
    """Chunk/COW-block size vs snapshot size and checkpoint time (paper: 256 KB)."""

    def run():
        result = ExperimentResult(
            experiment="ablation-stripe",
            description="BlobCR chunk size vs per-VM snapshot size and checkpoint time",
        )
        for chunk in (64 * KiB, 256 * KiB, 1024 * KiB):
            spec = GRAPHENE.scaled(
                blobseer=dataclasses.replace(GRAPHENE.blobseer, chunk_size=chunk),
                checkpoint=dataclasses.replace(GRAPHENE.checkpoint, cow_block_size=chunk),
            )
            outcome = run_synthetic_cell("BlobCR-app", 4, 50 * MB, spec=spec)
            result.rows.append({
                "chunk_KiB": chunk // KiB,
                "snapshot_MB": round(outcome["snapshot_bytes_per_instance"] / 1e6, 1),
                "checkpoint_s": outcome["checkpoint_time"],
            })
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, result)
    print()
    print(result.to_table())
    # Coarser blocks can only increase the snapshot size (more false sharing).
    sizes = [row["snapshot_MB"] for row in result.rows]
    assert sizes == sorted(sizes)


def test_ablation_replication(benchmark):
    """Replication factor of the checkpoint repository vs storage and time."""

    def run():
        result = ExperimentResult(
            experiment="ablation-replication",
            description="chunk replication factor vs storage and checkpoint time",
        )
        for replication in (1, 2, 3):
            spec = GRAPHENE.scaled(
                blobseer=dataclasses.replace(GRAPHENE.blobseer, replication=replication),
            )
            outcome = run_synthetic_cell("BlobCR-app", 4, 50 * MB, spec=spec)
            result.rows.append({
                "replication": replication,
                "storage_MB": round(outcome["storage_after_checkpoint"] / 1e6, 1),
                "checkpoint_s": outcome["checkpoint_time"],
            })
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, result)
    print()
    print(result.to_table())
    storage = [row["storage_MB"] for row in result.rows]
    assert storage[1] > storage[0] * 1.7  # two replicas ~ double the storage


def test_ablation_prefetch(benchmark):
    """Adaptive prefetching on/off for restart (design principle 3.1.4)."""
    from repro.apps.synthetic import SyntheticBenchmark
    from repro.cluster.cloud import Cloud
    from repro.core.backends import create_backend

    def run_one(prefetch: bool) -> float:
        cloud = Cloud(GRAPHENE.scaled(compute_nodes=12))
        deployment = create_backend("blobcr", cloud, adaptive_prefetch=prefetch)
        bench = SyntheticBenchmark(deployment, 50 * MB)
        out = {}

        def scenario():
            yield from deployment.deploy(8)
            bench.fill_buffers()
            checkpoint = yield from bench.checkpoint_app_level()
            t0 = cloud.now
            yield from bench.restart(checkpoint)
            out["restart"] = cloud.now - t0

        cloud.run(cloud.process(scenario()))
        return out["restart"]

    def run():
        result = ExperimentResult(
            experiment="ablation-prefetch",
            description="restart time with and without adaptive prefetching (s)",
        )
        result.rows.append({"prefetch": "on", "restart_s": run_one(True)})
        result.rows.append({"prefetch": "off", "restart_s": run_one(False)})
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    attach_rows(benchmark, result)
    print()
    print(result.to_table())
    rows = {row["prefetch"]: row["restart_s"] for row in result.rows}
    assert rows["on"] <= rows["off"] * 1.02
