"""Workload plans of the evaluation: the synthetic benchmark cell functions.

The five approaches of the synthetic evaluation (Section 4.2/4.3):

========================  ======================  =====================
label                     stage 1 (process state) stage 2 (persistence)
========================  ======================  =====================
``BlobCR-app``            application dump        BlobSeer disk snapshot
``qcow2-disk-app``        application dump        qcow2 file copy to PVFS
``BlobCR-blcr``           BLCR via mpich2         BlobSeer disk snapshot
``qcow2-disk-blcr``       BLCR via mpich2         qcow2 file copy to PVFS
``qcow2-full``            none (RAM captured)     savevm + copy to PVFS
========================  ======================  =====================

:func:`run_synthetic_scenario` runs one complete deploy -> fill -> checkpoint ->
restart cycle for one approach and returns every quantity Figures 2-4 need, so
scenario specs only select and format columns.  This module sits in the
scenario layer (below the per-figure modules) so both the paper's figures and
the beyond-paper sweeps share it without layering cycles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.apps.synthetic import SyntheticBenchmark
from repro.cluster.cloud import Cloud
from repro.core.backends import create_backend, get_backend
from repro.core.strategy import Deployment

from repro.util.config import GRAPHENE, ClusterSpec
from repro.util.errors import ConfigurationError
from repro.util.units import MB

#: the five approaches of the synthetic benchmarks (Figures 2, 3, 4, 5)
APPROACHES = ["BlobCR-app", "qcow2-disk-app", "BlobCR-blcr", "qcow2-disk-blcr", "qcow2-full"]
#: the four approaches of the CM1 study (Figure 6, Table 1; qcow2-full omitted)
CM1_APPROACHES = ["BlobCR-app", "qcow2-disk-app", "BlobCR-blcr", "qcow2-disk-blcr"]

#: process-count axis used when reproducing the paper-scale figures
PAPER_SCALE_POINTS = (8, 24, 48, 80, 120)
#: reduced axis used by the default benchmark run (same shape, faster)
BENCH_SCALE_POINTS = (4, 12, 24)

#: buffer sizes of the synthetic benchmark
PAPER_BUFFER_SIZES = (50 * MB, 200 * MB)


def format_mb(nbytes: int) -> str:
    """Render a byte count as the ``<n>MB`` cell-key part used since PR 2."""
    return f"{nbytes // 10**6}MB"


@dataclass
class ScenarioOutcome:
    """Everything measured in one deploy/checkpoint/restart cycle."""

    approach: str
    instances: int
    buffer_bytes: int
    deploy_time: float
    #: completion time of the last checkpoint
    checkpoint_time: float
    restart_time: float
    #: per-instance size of the persisted snapshot (max across instances)
    snapshot_bytes_per_instance: int
    #: total persistent storage used after the last checkpoint
    storage_after_checkpoint: int
    restored_ok: bool
    #: per successive checkpoint (Figure 5): completion time, storage used after it
    checkpoint_times: List[float]
    storage_trajectory: List[int]


def split_approach(approach: str) -> tuple[str, str]:
    """Split an approach label into (storage backend, checkpoint level).

    Any registered deployment backend is addressable as ``<backend>-app`` or
    ``<backend>-blcr`` (stage-1 dump by the application or by BLCR);
    ``qcow2-full`` is its own full-VM level.  Unknown backends are rejected
    with the registry's list of available names.
    """
    if approach == "qcow2-full":
        return "qcow2-full", "full"
    backend, sep, level = approach.rpartition("-")
    # qcow2-full captures RAM in the snapshot itself; a staged (app/blcr)
    # dump on top of it is a meaningless combination, not a sweep point.
    if not sep or level not in ("app", "blcr") or backend.lower() == "qcow2-full":
        raise ConfigurationError(
            f"unknown approach {approach!r}: expected '<backend>-app', "
            "'<backend>-blcr' or 'qcow2-full'"
        )
    get_backend(backend)  # raises with the available names on unknown backends
    return backend, level


def make_deployment(approach: str, spec: Optional[ClusterSpec] = None) -> Deployment:
    """Create a fresh cloud + deployment strategy for one approach.

    The storage half of the approach label doubles as the backend name, so
    the strategy is resolved through the deployment-backend registry -- new
    backends become addressable here (and hence in every scenario) just by
    registering themselves.
    """
    spec = spec or GRAPHENE
    cloud = Cloud(spec)
    backend, _level = split_approach(approach)
    return create_backend(backend, cloud)


def run_synthetic_scenario(
    approach: str,
    instances: int,
    buffer_bytes: int,
    spec: Optional[ClusterSpec] = None,
    include_restart: bool = True,
    checkpoints: int = 1,
) -> ScenarioOutcome:
    """Run one full synthetic-benchmark cycle for one approach.

    ``checkpoints`` > 1 reproduces the successive-checkpoint experiment
    (Figure 5): the buffer is refilled before every checkpoint.
    """
    spec = spec or GRAPHENE
    if instances > spec.compute_nodes:
        spec = spec.scaled(compute_nodes=instances)
    deployment = make_deployment(approach, spec)
    cloud = deployment.cloud
    _backend, level = split_approach(approach)
    bench = SyntheticBenchmark(deployment, buffer_bytes, level=level)

    def scenario():
        start = cloud.now
        yield from deployment.deploy(instances, processes_per_instance=1)
        deploy_time = cloud.now - start
        checkpoint = None
        checkpoint_times: List[float] = []
        storage_trajectory: List[int] = []
        for _ in range(checkpoints):
            bench.fill_buffers()
            t0 = cloud.now
            checkpoint = yield from bench.checkpoint()
            checkpoint_times.append(cloud.now - t0)
            storage_trajectory.append(deployment.storage_used_bytes())
        restart_time, restored_ok = 0.0, True
        if include_restart:
            t0 = cloud.now
            yield from bench.restart(checkpoint)
            restart_time = cloud.now - t0
            restored_ok = bench.verify_restored_state()
        return ScenarioOutcome(
            approach=approach,
            instances=instances,
            buffer_bytes=buffer_bytes,
            deploy_time=deploy_time,
            checkpoint_time=checkpoint_times[-1],
            restart_time=restart_time,
            snapshot_bytes_per_instance=checkpoint.max_snapshot_bytes,
            storage_after_checkpoint=storage_trajectory[-1],
            restored_ok=restored_ok,
            checkpoint_times=checkpoint_times,
            storage_trajectory=storage_trajectory,
        )

    return cloud.run(cloud.process(scenario(), name=f"scenario:{approach}"))


def run_synthetic_cell(
    approach: str,
    instances: int,
    buffer_bytes: int,
    spec: Optional[ClusterSpec] = None,
    include_restart: bool = True,
    checkpoints: int = 1,
) -> Dict[str, Any]:
    """Run one synthetic cell and return a JSON-serialisable payload.

    This is the module-level (hence picklable) cell function the runner
    dispatches to worker processes for Figures 2-5; the per-figure merge
    functions pick the columns they need out of the payload.
    """
    outcome = run_synthetic_scenario(
        approach,
        instances,
        buffer_bytes,
        spec=spec,
        include_restart=include_restart,
        checkpoints=checkpoints,
    )
    return {
        **asdict(outcome),
        "sim_time_s": outcome.deploy_time + sum(outcome.checkpoint_times) + outcome.restart_time,
    }
