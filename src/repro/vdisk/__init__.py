"""Virtual disk images and block devices.

This package provides the disk-image substrate that both BlobCR and the
qcow2-over-PVFS baselines operate on:

* :class:`~repro.vdisk.blockdev.BlockDevice` -- the abstract guest-visible
  block device interface (byte-addressable ``read`` / ``write``),
* :class:`~repro.vdisk.blockdev.SparseDevice` -- an in-memory sparse device
  used for raw images and as the mirroring module's local overlay,
* :class:`~repro.vdisk.raw.RawImage` -- a raw disk image file,
* :class:`~repro.vdisk.qcow2.QcowImage` -- a qcow2-like copy-on-write format
  with backing files, cluster allocation, *internal* snapshots (``savevm``)
  and accurate file-size accounting.

Granularity (COW block, qcow2 cluster) decides what is allocated, copied up,
dirtied and shipped; it is not the stored unit.  Both sparse devices keep
their content in one :class:`~repro.util.runmap.RunMap`.  A vectored write
stores each *stretch* of touching windows (ascending, disjoint, no wholly
untouched block between them) as one *run* over one flat concatenation of
the written payloads; only the blocks a stretch covers in part are read, once
each, to fill its gaps.  Reads, COMMIT and the base-image upload move one
piece per run.  A run's snapshot flag says whether a snapshot holds it: a
qcow2 internal snapshot, or the mirroring module's last COMMIT, whose next
COMMIT ships the unflagged runs.
"""

from repro.vdisk.blockdev import BlockDevice, SparseDevice
from repro.vdisk.raw import RawImage
from repro.vdisk.qcow2 import InternalSnapshot, QcowImage

__all__ = [
    "BlockDevice",
    "SparseDevice",
    "RawImage",
    "QcowImage",
    "InternalSnapshot",
]
