"""BlobCR: the paper's primary contribution.

The :mod:`repro.core` package ties the substrates together into the
checkpoint-restart framework of the paper:

* :class:`~repro.core.repository.CheckpointRepository` -- the BlobSeer-backed
  distributed checkpoint repository deployed over the compute nodes' local
  disks (design principle 3.1.1),
* :class:`~repro.core.mirroring.MirroringModule` -- the FUSE-like module that
  exposes a remotely stored image as a raw local device, tracks local
  modifications at block granularity and implements the ``CLONE`` / ``COMMIT``
  ioctls (design principles 3.1.3),
* :class:`~repro.core.proxy.CheckpointProxy` -- the per-node service that
  suspends the VM, commits the incremental disk snapshot and resumes the VM
  on request from the guest (Section 3.2),
* :class:`~repro.core.blobcr.BlobCRDeployment` -- the user-facing manager:
  multi-deployment of instances from a base image, global checkpoints
  (application-level or process-level/BLCR), restart with lazy transfer and
  adaptive prefetching, and snapshot garbage collection,
* :class:`~repro.core.protocol.CoordinatedCheckpoint` -- the modified MPICH2
  coordinated checkpoint protocol extended with the sync + snapshot-request
  steps (Section 3.3),
* :mod:`~repro.core.gc` -- transparent garbage collection of obsoleted
  snapshots (the paper's future-work extension),
* :mod:`~repro.core.backends` -- the deployment-backend registry: strategies
  publish themselves under a name (``blobcr``, ``qcow2-disk``, ``qcow2-full``)
  with an option schema, and every entry point resolves them through
  :func:`~repro.core.backends.create_backend` instead of hard-coding classes,
* :mod:`~repro.core.migration` -- the pieces of live migration, which
  ``BlobCRDeployment`` runs pre-copy or post-copy over the snapshot store.
"""

from repro.core.backends import (
    BackendInfo,
    backend_names,
    create_backend,
    get_backend,
    load_builtin_backends,
    register_backend,
)
from repro.core.repository import CheckpointRepository
from repro.core.device import RemoteBlobDevice
from repro.core.mirroring import MirroringModule
from repro.core.proxy import CheckpointProxy
from repro.core.strategy import CheckpointRecord, Deployment, DeployedInstance, GlobalCheckpoint
from repro.core.blobcr import BlobCRDeployment
from repro.core.migration import MigrationResult, MigrationRound, PostCopyPump
from repro.core.protocol import CoordinatedCheckpoint
from repro.core.gc import SnapshotGarbageCollector
from repro.core.baseimage import build_base_image

__all__ = [
    "BackendInfo",
    "CoordinatedCheckpoint",
    "backend_names",
    "build_base_image",
    "create_backend",
    "get_backend",
    "load_builtin_backends",
    "register_backend",
    "CheckpointRepository",
    "RemoteBlobDevice",
    "MirroringModule",
    "CheckpointProxy",
    "Deployment",
    "DeployedInstance",
    "CheckpointRecord",
    "GlobalCheckpoint",
    "BlobCRDeployment",
    "MigrationResult",
    "MigrationRound",
    "PostCopyPump",
    "SnapshotGarbageCollector",
]
