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

:func:`run_synthetic_cell` is the cell function of Figures 2-5 and of the
``scale`` sweep: one deploy -> fill -> checkpoint -> restart -> verify cycle
of one approach on its own cloud (the fig2 and fig4 views report it through
:func:`checkpoint_view`).  The other scenario modules resolve approach labels
through :func:`make_deployment` and :func:`split_approach`.
"""

from __future__ import annotations

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


def require_positive(**counts: int) -> None:
    """Reject a count below one before any cloud is built, naming it."""
    for name, value in counts.items():
        if value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")


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


def run_synthetic_cell(
    approach: str,
    instances: int,
    buffer_bytes: int,
    spec: Optional[ClusterSpec] = None,
    checkpoints: int = 1,
) -> Dict[str, Any]:
    """Run one deploy -> fill -> checkpoint -> restart cycle; return its payload.

    ``checkpoints`` > 1 reproduces the successive-checkpoint experiment
    (Figure 5): the buffer is refilled before every checkpoint.  The payload
    holds the phase times, the largest per-instance snapshot, the storage
    used after each checkpoint and whether the restored buffers verified.
    """
    require_positive(instances=instances, buffer_bytes=buffer_bytes, checkpoints=checkpoints)
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
        checkpoint_times: List[float] = []
        storage_trajectory: List[int] = []
        for _ in range(checkpoints):
            bench.fill_buffers()
            t0 = cloud.now
            checkpoint = yield from bench.checkpoint()
            checkpoint_times.append(cloud.now - t0)
            storage_trajectory.append(deployment.storage_used_bytes())
        t0 = cloud.now
        yield from bench.restart(checkpoint)
        restart_time = cloud.now - t0
        return {
            "approach": approach,
            "instances": instances,
            "buffer_bytes": buffer_bytes,
            "deploy_time": deploy_time,
            "checkpoint_time": checkpoint_times[-1],
            "restart_time": restart_time,
            "snapshot_bytes_per_instance": checkpoint.max_snapshot_bytes,
            "storage_after_checkpoint": storage_trajectory[-1],
            "restored_ok": bench.verify_restored_state(),
            "checkpoint_times": checkpoint_times,
            "storage_trajectory": storage_trajectory,
            "sim_time_s": deploy_time + sum(checkpoint_times) + restart_time,
        }

    return cloud.run(cloud.process(scenario(), name=f"scenario:{approach}"))


def checkpoint_view(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A cycle's record up to its checkpoint; ``restored_ok`` stays verified."""
    checkpoint_s = payload["deploy_time"] + sum(payload["checkpoint_times"])
    return dict(payload, restart_time=0.0, sim_time_s=checkpoint_s)
