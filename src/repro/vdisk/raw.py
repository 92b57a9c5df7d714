"""Raw disk images.

A raw image is simply a flat byte array of the image size.  The base guest
image the user uploads to the cloud is a raw image holding a formatted guest
file system with the operating system installed; both BlobCR (which stripes
it into a BLOB) and the PVFS baselines (which store it as a file and use it
as a qcow2 backing file) start from the same :class:`RawImage`.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from repro.util.bytesource import ByteSource
from repro.vdisk.blockdev import BlockDevice, SparseDevice


class RawImage(BlockDevice):
    """A raw disk image backed by sparse in-memory storage."""

    def __init__(self, size: int, block_size: int = 256 * 1024, name: str = "raw-image"):
        self._device = SparseDevice(size, block_size=block_size, name=name)
        self.name = name

    @property
    def size(self) -> int:
        return self._device.size

    def read(self, offset: int, length: int) -> ByteSource:
        return self._device.read(offset, length)

    def write(self, offset: int, data: ByteSource) -> None:
        self.writev([(offset, data)])

    def writev(self, pieces: Sequence[Tuple[int, ByteSource]]) -> None:
        self._device.writev(pieces)

    # -- image-level helpers -------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        """Bytes of actual content (a raw *file* would occupy ``size`` bytes,
        but sparse files / uploads only pay for written content)."""
        return self._device.allocated_bytes

    def stored_runs(self) -> Iterator[Tuple[int, ByteSource]]:
        """``(offset, content)`` of every stored run, ascending: what an upload ships."""
        return self._device.stored_runs()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<RawImage {self.name} size={self.size} allocated={self.allocated_bytes}>"
