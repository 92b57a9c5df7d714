"""A qcow2-like copy-on-write disk image format.

This module reimplements the pieces of qcow2 semantics the paper's baselines
rely on:

* **backing files**: a qcow2 image created with ``qemu-img create -b base``
  starts empty and serves reads of unallocated clusters from the (read-only)
  base image; guest writes allocate clusters inside the qcow2 file;
* **cluster allocation**: data is allocated in whole clusters (64 KiB by
  default), with copy-up of partially written clusters (the mapping is a
  :class:`~repro.util.runmap.RunMap`: consecutive clusters written
  together are one entry); the *file size*
  accounts for the header, the L1/L2 mapping tables, the refcount blocks and
  every allocated cluster -- this is the quantity the ``qcow2-disk`` baseline
  copies to PVFS on every checkpoint;
* **internal snapshots** (``savevm``): the current cluster mapping is frozen
  inside the image together with the saved VM device/RAM state; later writes
  to frozen clusters allocate new clusters (the file keeps growing), and the
  VM can be reverted to any internal snapshot without rebooting -- this is
  the ``qcow2-full`` baseline.

The implementation is functional: reads return real data and snapshots can be
reverted and verified.  File sizes are derived from actual allocation, not
hard-coded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.util.bytesource import ByteSource, LiteralBytes
from repro.util.errors import SnapshotError, StorageError
from repro.util.runmap import RunMap
from repro.vdisk.blockdev import BlockDevice, read_through


@dataclass
class InternalSnapshot:
    """A ``savevm``-style snapshot stored inside the qcow2 file."""

    name: str
    #: the cluster mapping at snapshot time (payloads shared with the image)
    cluster_table: RunMap
    #: bytes of saved VM state (RAM, device state); 0 for disk-only snapshots
    vm_state_size: int = 0
    #: sequence number, for deterministic ordering
    sequence: int = 0


class QcowImage(BlockDevice):
    """An in-memory qcow2-like image."""

    _HEADER_SIZE = 65536  # header + L1 table cluster, like a freshly created image

    def __init__(
        self,
        size: int,
        cluster_size: int = 64 * 1024,
        backing: Optional[BlockDevice] = None,
        name: str = "qcow2",
    ):
        if size <= 0:
            raise StorageError(f"image size must be positive: {size}")
        if backing is not None and backing.size > size:
            raise StorageError("backing image larger than the overlay image")
        self._size = size
        self.cluster_size = cluster_size
        self.backing = backing
        self.name = name
        #: active cluster mapping (guest-visible state); a run flagged shared
        #: is referenced by a snapshot too
        self._map = RunMap(cluster_size)
        #: number of clusters ever allocated in the file (never shrinks)
        self._allocated_clusters = 0
        self._snapshots: Dict[str, InternalSnapshot] = {}
        self._sequence = itertools.count(1)
        #: write statistics
        self.clusters_written = 0

    # -- BlockDevice interface ---------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    def _background(self, offset: int, length: int) -> ByteSource:
        return read_through(self.backing, offset, length)

    def read(self, offset: int, length: int) -> ByteSource:
        self._check_window(offset, length)
        if length == 0:
            return LiteralBytes(b"")
        return self._map.read(offset, length, self._background)

    def write(self, offset: int, data: ByteSource) -> None:
        self.writev([(offset, data)])

    def writev(self, pieces: Sequence[Tuple[int, ByteSource]]) -> None:
        """Partially covered clusters are copied up; a cluster that was absent
        or is shared with a snapshot is newly allocated in the file."""
        cluster_size = self.cluster_size
        written = 0
        for offset, data in pieces:
            self._check_window(offset, data.size)
            if data.size:
                written += (offset + data.size - 1) // cluster_size - offset // cluster_size + 1
        self._allocated_clusters += self._map.writev(pieces, self._background)
        self.clusters_written += written

    # -- file size accounting -----------------------------------------------------

    @property
    def metadata_size(self) -> int:
        """Header + L1/L2 tables + refcount blocks, rounded up to clusters."""
        l2_entries = self._allocated_clusters
        l2_bytes = 8 * l2_entries
        refcount_bytes = 2 * self._allocated_clusters
        tables = l2_bytes + refcount_bytes
        table_clusters = (tables + self.cluster_size - 1) // self.cluster_size
        return self._HEADER_SIZE + table_clusters * self.cluster_size

    @property
    def file_size(self) -> int:
        """Size of the image file on the host file system."""
        data = self._allocated_clusters * self.cluster_size
        vm_state = sum(s.vm_state_size for s in self._snapshots.values())
        return self.metadata_size + data + vm_state

    # -- internal snapshots (savevm) ---------------------------------------------------

    def create_internal_snapshot(self, name: str, vm_state_size: int = 0) -> InternalSnapshot:
        """Freeze the current state inside the image (``savevm``)."""
        if name in self._snapshots:
            raise SnapshotError(f"internal snapshot {name!r} already exists in {self.name}")
        # Every active cluster is now referenced by the snapshot: subsequent
        # writes must allocate fresh clusters instead of overwriting in place.
        self._map.share()
        snapshot = InternalSnapshot(
            name=name,
            cluster_table=self._map.copy(),
            vm_state_size=vm_state_size,
            sequence=next(self._sequence),
        )
        self._snapshots[name] = snapshot
        return snapshot

    def revert_to_internal_snapshot(self, name: str) -> InternalSnapshot:
        """Restore the guest-visible state of an internal snapshot (``loadvm``)."""
        try:
            snapshot = self._snapshots[name]
        except KeyError:
            raise SnapshotError(f"no internal snapshot {name!r} in {self.name}") from None
        self._map = snapshot.cluster_table.copy()  # frozen with every run flagged shared
        return snapshot

    @property
    def internal_snapshots(self) -> List[InternalSnapshot]:
        return sorted(self._snapshots.values(), key=lambda s: s.sequence)

    # -- image file operations ------------------------------------------------------------

    def clone_file(self, name: str = "") -> "QcowImage":
        """Copy the image file as it exists right now (``cp image.qcow2 ...``).

        The copy shares immutable cluster payloads with the original but has
        independent tables, so later writes to either image do not affect the
        other -- exactly like copying the file.
        """
        copy = QcowImage(
            self._size, self.cluster_size, backing=self.backing, name=name or f"{self.name}-copy"
        )
        copy._map = self._map.copy()
        copy._allocated_clusters = self._allocated_clusters
        copy._snapshots = {
            n: InternalSnapshot(
                name=s.name,
                cluster_table=s.cluster_table.copy(),
                vm_state_size=s.vm_state_size,
                sequence=s.sequence,
            )
            for n, s in self._snapshots.items()
        }
        latest = max((s.sequence for s in self._snapshots.values()), default=0)
        copy._sequence = itertools.count(latest + 1)
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<QcowImage {self.name} size={self._size} clusters={self._map.block_count()} "
            f"file={self.file_size} snapshots={len(self._snapshots)}>"
        )
