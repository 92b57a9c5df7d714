"""Read-only block device backed by a remotely stored BLOB snapshot.

This is the functional half of the paper's *lazy transfer* scheme: the
hypervisor sees a complete raw device, but content is fetched from the
checkpoint repository only when it is actually read.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.blobseer import BlobClient
from repro.util.bytesource import ByteSource, ZeroBytes, concat
from repro.util.errors import StorageError
from repro.vdisk.blockdev import BlockDevice


class RemoteBlobDevice(BlockDevice):
    """Expose one published BLOB version as a read-only block device."""

    def __init__(
        self,
        client: BlobClient,
        blob_id: int,
        version: Optional[int] = None,
        size: Optional[int] = None,
        name: str = "",
    ):
        self._client = client
        self.blob_id = blob_id
        self.version = client.latest_version(blob_id) if version is None else version
        #: the size of the snapshot (a published version is immutable: read once)
        self.blob_size = blob_size = client.size(blob_id, self.version)
        self._size = size if size is not None else blob_size
        if self._size < blob_size:
            raise StorageError("device size smaller than the snapshot it exposes")
        self.name = name or f"blob-{blob_id}@{self.version}"

    @property
    def size(self) -> int:
        return self._size

    def read(self, offset: int, length: int) -> ByteSource:
        self._check_window(offset, length)
        if length == 0:
            return ZeroBytes(0)
        inside = min(length, max(0, self.blob_size - offset))
        pieces = []
        if inside > 0:
            pieces.append(self._client.read(self.blob_id, offset, inside, version=self.version))
        if inside < length:
            pieces.append(ZeroBytes(length - inside))
        return concat(pieces)

    def write(self, offset: int, data: ByteSource) -> None:
        self.writev([(offset, data)])

    def writev(self, pieces: Sequence[Tuple[int, ByteSource]]) -> None:
        raise StorageError(
            f"{self.name} is a read-only snapshot device; "
            "writes must go through the mirroring module's local overlay"
        )
