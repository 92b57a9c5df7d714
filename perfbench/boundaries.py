"""The one table of layer boundaries the traced run wraps.

Each row names a *public* entry point of one layer (no properties, no
underscore names) by ``module``/``cls``/``attr``.  ``perfbench.tracing``
resolves every row at start-up and replaces the attribute with a timing
wrapper by ``setattr`` -- nothing under ``src/`` changes.  A row that no
longer resolves is reported under ``unresolved_boundaries`` and its metrics
read ``null``; it never crashes the run.

Columns:

``layer``
    module path under ``repro`` the time is attributed to.
``stem``
    metric stem: the row feeds ``<layer>.<stem>_calls`` (and ``_bytes``,
    ``_s`` where ``perfbench.metrics`` asks for them).  Rows sharing a
    ``(layer, stem)`` are summed.
``kind``
    ``sync`` -- an ordinary call; ``generator`` -- the call returns a
    generator the simulation kernel resumes many times: each *resume* is
    timed, so simulated waiting never counts as host busy time.
``cls``
    class holding the attribute, ``None`` for a module-level function, or
    ``"ByteSource+"`` for every concrete subclass found through
    ``ByteSource.__subclasses__()``.
``nbytes`` / ``flag``
    optional extractors ``(args, kwargs, result) -> int`` counted at the same
    boundary (``args[0]`` is ``self`` for methods).
``keep``
    phase-level span kept individually in the trace file; other rows
    (10^5-10^6 calls per cell) are folded into per-(cell, span, parent)
    aggregates with exact self time.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

Extractor = Callable[[tuple, dict, object], int]


def _size(value: object) -> int:
    return value.size if hasattr(value, "size") else len(value)  # type: ignore[arg-type]


def _pvfs_read_bytes(args: tuple, kwargs: dict, result: object) -> int:
    size = kwargs.get("size", args[3] if len(args) > 3 else None)
    return result.size if size is None else min(size, result.size)  # type: ignore[attr-defined]


class Boundary(NamedTuple):
    layer: str
    stem: str
    module: str
    cls: Optional[str]
    attr: str
    kind: str = "sync"
    nbytes: Optional[Extractor] = None
    flag: Optional[Extractor] = None
    keep: bool = False

    @property
    def span_name(self) -> str:
        return f"{self.layer}.{self.stem}"

    @property
    def target(self) -> str:
        owner = f"{self.module}.{self.cls}" if self.cls else self.module
        return f"{owner}.{self.attr}"


_B = Boundary
_BS = "repro.util.bytesource"
_CLIENT = ("repro.blobseer.client", "BlobClient")
_PROVIDERS = ("repro.blobseer.provider", "ProviderManager")
_METADATA = ("repro.blobseer.metadata", "MetadataStore")
_QCOW = ("repro.vdisk.qcow2", "QcowImage")
_SPARSE = ("repro.vdisk.blockdev", "SparseDevice")
_RAW = ("repro.vdisk.raw", "RawImage")
_GUESTFS = ("repro.guest.filesystem", "GuestFileSystem")
_DEPLOYMENT = ("repro.core.strategy", "Deployment")
_REPOSITORY = ("repro.core.repository", "CheckpointRepository")
_MIRRORING = ("repro.core.mirroring", "MirroringModule")
_BLOBCR = ("repro.core.blobcr", "BlobCRDeployment")
_MIGRATE = ("repro.core.migration", "BlobCRMigrateDeployment")
_PVFS = ("repro.cluster.pvfs", "PVFSDeployment")
_QCOW_PVFS = ("repro.baselines.common", "QcowPVFSDeployment")
_QCOW_DISK = ("repro.baselines.qcow2_disk", "Qcow2DiskDeployment")
_QCOW_FULL = ("repro.baselines.qcow2_full", "Qcow2FullDeployment")

BOUNDARIES = (
    # -- util.bytesource: content generation, slicing, hashing --------------------------
    _B("util.bytesource", "read", _BS, "ByteSource+", "read", nbytes=lambda a, k, r: len(r)),
    _B("util.bytesource", "slice", _BS, "ByteSource+", "slice"),
    _B("util.bytesource", "fingerprint", _BS, "ByteSource+", "fingerprint",
       nbytes=lambda a, k, r: a[0].size),
    _B("util.bytesource", "concat", _BS, None, "concat"),
    # -- sim.core: the DES kernel (everything it resumes that no row below claims) -------
    _B("sim.core", "run", "repro.sim.core", "Environment", "run", keep=True),
    # -- cluster: PVFS striping and the hypervisor --------------------------------------
    _B("cluster", "pvfs_write", *_PVFS, "write_file", "generator",
       nbytes=lambda a, k, r: r.size),
    _B("cluster", "pvfs_read", *_PVFS, "read_file", "generator", nbytes=_pvfs_read_bytes),
    _B("cluster", "hypervisor_boot", "repro.cluster.hypervisor", "Hypervisor", "boot",
       "generator"),
    # -- blobseer.client: striping, shadowing, read plans -------------------------------
    _B("blobseer.client", "write_batch", *_CLIENT, "write_batch",
       nbytes=lambda a, k, r: r.logical_bytes, keep=True),
    _B("blobseer.client", "read", *_CLIENT, "read", nbytes=lambda a, k, r: r.size, keep=True),
    _B("blobseer.client", "read_plan", *_CLIENT, "read_plan"),
    _B("blobseer.client", "clone", *_CLIENT, "clone"),
    # -- blobseer.provider: placement and chunk storage ---------------------------------
    _B("blobseer.provider", "place", *_PROVIDERS, "place"),
    _B("blobseer.provider", "store", *_PROVIDERS, "store_replicated"),
    _B("blobseer.provider", "fetch", *_PROVIDERS, "fetch_any"),
    # -- blobseer.metadata: segment trees and dedup aliases -----------------------------
    _B("blobseer.metadata", "derive_version", *_METADATA, "derive_version"),
    _B("blobseer.metadata", "descriptors_in_range", *_METADATA, "descriptors_in_range"),
    _B("blobseer.metadata", "resolve_chunk", *_METADATA, "resolve_chunk"),
    # -- dedup: fingerprint index ---------------------------------------------------------
    _B("dedup", "ingest", "repro.dedup.engine", "DedupEngine", "ingest",
       nbytes=lambda a, k, r: a[1].size, flag=lambda a, k, r: r.duplicate),
    # -- vdisk: qcow2 images and the sparse COW device ----------------------------------
    _B("vdisk", "qcow2_write", *_QCOW, "write"),
    _B("vdisk", "qcow2_read", *_QCOW, "read"),
    _B("vdisk", "blockdev_write", *_SPARSE, "write"),
    _B("vdisk", "blockdev_read", *_SPARSE, "read"),
    _B("vdisk", "blockdev_write", *_RAW, "write"),
    _B("vdisk", "blockdev_read", *_RAW, "read"),
    # -- guest: the guest file system -----------------------------------------------------
    _B("guest", "write_file", *_GUESTFS, "write_file", nbytes=lambda a, k, r: _size(a[2])),
    _B("guest", "read_file", *_GUESTFS, "read_file"),
    _B("guest", "sync", *_GUESTFS, "sync"),
    # -- core: BlobCR itself (deployment phases, repository, mirroring) -----------------
    _B("core", "deploy", *_DEPLOYMENT, "deploy", "generator", keep=True),
    _B("core", "checkpoint_all", *_DEPLOYMENT, "checkpoint_all", "generator", keep=True),
    _B("core", "restart_all", *_DEPLOYMENT, "restart_all", "generator", keep=True),
    _B("core", "commit", *_REPOSITORY, "commit_blocks", "generator",
       nbytes=lambda a, k, r: r.logical_bytes, keep=True),
    _B("core", "read_range", *_REPOSITORY, "read_range", "generator",
       nbytes=lambda a, k, r: r.size, keep=True),
    _B("core", "mirroring_write", *_MIRRORING, "write"),
    _B("core", "checkpoint_instance", *_BLOBCR, "checkpoint_instance", "generator"),
    _B("core", "restart_instance", *_BLOBCR, "restart_instance", "generator"),
    _B("core", "migrate_instance", *_MIGRATE, "migrate_instance", "generator"),
    # -- baselines: qcow2 over PVFS -------------------------------------------------------
    _B("baselines", "ensure_base_image", *_QCOW_PVFS, "ensure_base_image", "generator"),
    _B("baselines", "checkpoint_instance", *_QCOW_DISK, "checkpoint_instance", "generator"),
    _B("baselines", "restart_instance", *_QCOW_DISK, "restart_instance", "generator"),
    _B("baselines", "checkpoint_instance", *_QCOW_FULL, "checkpoint_instance", "generator"),
    _B("baselines", "restart_instance", *_QCOW_FULL, "restart_instance", "generator"),
    # -- service: admission control and the tenant driver -------------------------------
    _B("service", "admission", "repro.service.admission", "AdmissionQueue", "submit",
       flag=lambda a, k, r: r.state == "rejected"),
    _B("service", "driver_run", "repro.service.driver", "ServiceDriver", "run", keep=True),
)  # fmt: skip

#: the span every cell contributes; its self time is ``scenarios.self_s``
CELL_SPAN = "scenarios.cell"
