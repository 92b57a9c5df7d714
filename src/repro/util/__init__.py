"""Utility helpers shared by every subsystem.

This package deliberately has no dependency on the rest of :mod:`repro` so
that every other subpackage can import it freely.

Contents
--------

``units``
    Byte / time unit constants and human-readable formatting.
``bytesource``
    The :class:`~repro.util.bytesource.ByteSource` abstraction used to
    represent payload data either literally (small, fully materialised) or
    synthetically (large, deterministic, never materialised at full size).
``runmap``
    :class:`~repro.util.runmap.RunMap`, sparse storage of fixed-size blocks
    as sorted runs of consecutive whole blocks: what the virtual-disk devices
    keep their content in and what a BlobSeer ``write_batch`` settles
    overlapping pieces in.
``ranges``
    Sorted, disjoint ``(first, stop)`` ranges of integer ids (``add_range``,
    ``overlap``): the prefetched chunk ids of lazy boots and the dirty
    blocks of a mirroring module.
``rng``
    Deterministic random-number helpers built on ``numpy.random.Generator``.
``stats``
    Exact nearest-rank quantiles, histogram summaries and Jain's fairness
    index, shared by the tracer and the service layer's SLO reports.
``config``
    Calibration constants of the paper's testbed (Grid'5000 *graphene*
    cluster) expressed as frozen dataclasses.
``errors``
    The exception hierarchy for the whole library.
"""

from repro.util.units import (
    KiB,
    MiB,
    GiB,
    KB,
    MB,
    GB,
    format_bytes,
    format_duration,
)
from repro.util.bytesource import ByteSource, LiteralBytes, SyntheticBytes, ZeroBytes, concat
from repro.util.errors import (
    ReproError,
    SimulationError,
    StorageError,
    ChunkNotFoundError,
    VersionNotFoundError,
    SnapshotError,
    CheckpointError,
    RestartError,
    GuestError,
    FileSystemError,
    ProcessError,
    MPIError,
    FailureInjected,
    ConfigurationError,
)
from repro.util.rng import make_rng, stable_hash, stable_seed
from repro.util.config import (
    ClusterSpec,
    DiskSpec,
    NetworkSpec,
    VMSpec,
    BlobSeerSpec,
    PVFSSpec,
    CheckpointSpec,
    GRAPHENE,
)

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "KB",
    "MB",
    "GB",
    "format_bytes",
    "format_duration",
    "ByteSource",
    "LiteralBytes",
    "SyntheticBytes",
    "ZeroBytes",
    "concat",
    "ReproError",
    "SimulationError",
    "StorageError",
    "ChunkNotFoundError",
    "VersionNotFoundError",
    "SnapshotError",
    "CheckpointError",
    "RestartError",
    "GuestError",
    "FileSystemError",
    "ProcessError",
    "MPIError",
    "FailureInjected",
    "ConfigurationError",
    "make_rng",
    "stable_hash",
    "stable_seed",
    "ClusterSpec",
    "DiskSpec",
    "NetworkSpec",
    "VMSpec",
    "BlobSeerSpec",
    "PVFSSpec",
    "CheckpointSpec",
    "GRAPHENE",
]
