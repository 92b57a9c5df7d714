"""The mirroring module.

The mirroring module is BlobCR's answer to "how do I snapshot a running VM's
disk without restarting the hypervisor".  It sits between the hypervisor and
the checkpoint repository and

* exposes the remotely stored image as a plain **raw device** (maximum
  hypervisor compatibility),
* serves reads from a local cache, fetching missing content from the
  repository on demand (*lazy transfer* / mirroring),
* stores all guest writes locally as copy-on-write differences at a fixed
  block granularity,
* implements the two ioctls the checkpointing proxy uses:

  - ``CLONE``: create the checkpoint image as a clone of the base image
    (first checkpoint only),
  - ``COMMIT``: publish every block dirtied since the previous commit as one
    incremental snapshot of the checkpoint image.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.blobseer.client import ChunkRanges, WriteResult
from repro.core.device import RemoteBlobDevice
from repro.core.repository import CheckpointRepository
from repro.util.bytesource import ByteSource
from repro.util.errors import SnapshotError
from repro.vdisk.blockdev import BlockDevice, SparseDevice
from repro.vdisk.dirty import DirtyTracker


class MirroringModule(BlockDevice):
    """Raw-device facade with local COW and CLONE/COMMIT ioctls.

    Its size and block size are its repository's cloud's ``spec.vm.disk_size``
    and ``spec.checkpoint.cow_block_size``.
    """

    def __init__(
        self,
        repository: CheckpointRepository,
        node_name: str,
        instance_id: str,
        base_blob_id: int,
        base_version: Optional[int] = None,
        checkpoint_blob_id: Optional[int] = None,
    ):
        self.repository = repository
        self.node_name = node_name
        self.instance_id = instance_id
        self.spec = repository.cloud.spec.checkpoint
        self.base_blob_id = base_blob_id
        size = repository.cloud.spec.vm.disk_size
        self.remote = RemoteBlobDevice(
            repository.client, base_blob_id, version=base_version, size=size,
            name=f"{instance_id}.base",
        )
        self._local = SparseDevice(
            size, block_size=self.spec.cow_block_size, base=self.remote, name=f"{instance_id}.cow"
        )
        self.dirty = DirtyTracker(self.spec.cow_block_size)
        #: the checkpoint image (created by the first CLONE, or inherited when
        #: the instance was re-deployed from an earlier checkpoint image)
        self.checkpoint_blob_id = checkpoint_blob_id
        #: versions of the checkpoint image produced by COMMITs of this module
        self.committed_versions: List[int] = []
        self.commit_bytes_total = 0

    # -- BlockDevice facade (what the hypervisor / guest FS sees) ----------------------------

    @property
    def size(self) -> int:
        return self._local.size

    @property
    def block_size(self) -> int:
        return self.spec.cow_block_size

    def read(self, offset: int, length: int) -> ByteSource:
        return self._local.read(offset, length)

    def write(self, offset: int, data: ByteSource) -> None:
        self.writev([(offset, data)])

    def writev(self, pieces: Sequence[Tuple[int, ByteSource]]) -> None:
        self._local.writev(pieces)
        for offset, data in pieces:
            self.dirty.mark_window(offset, data.size)

    # -- introspection ----------------------------------------------------------------------

    @property
    def dirty_bytes(self) -> int:
        """Upper bound of bytes the next COMMIT will ship."""
        return self.dirty.dirty_bytes

    def residue_payloads(self) -> Dict[int, ByteSource]:
        """Payloads of the blocks dirtied since the last COMMIT (open epoch).

        This is what a post-copy migration leaves behind on the source: the
        local COW content not yet published to the repository, keyed by block
        index.  Blocks whose content lives only in the remote base (clean
        fall-through reads) carry nothing local and are skipped.
        """
        payloads: Dict[int, ByteSource] = {}
        for first, stop in self.dirty.ranges:
            for index in range(first, stop):
                payload = self._local.block_payload(index)
                if payload is not None and payload.size > 0:
                    payloads[index] = payload
        return payloads

    def standing_on(self) -> List[Tuple[int, int]]:
        """The ``(blob id, version)`` snapshots this disk depends on: the one
        it reads through, then its last COMMIT if it made one.  The last entry
        is what the next COMMIT derives from."""
        snapshots = [(self.base_blob_id, self.remote.version)]
        if self.committed_versions:
            snapshots.append((self.checkpoint_blob_id, self.committed_versions[-1]))
        return snapshots

    def hot_chunk_ranges(self, offset: int, length: int) -> ChunkRanges:
        """Chunk ranges backing a byte range of the base snapshot (prefetch planning)."""
        return self.repository.client.chunk_ranges(
            self.base_blob_id, offset, length, version=self.remote.version
        )

    # -- ioctls ------------------------------------------------------------------------------

    def clone(self) -> Generator:
        """Simulation process: ``CLONE`` -- create the checkpoint image if needed."""
        if self.checkpoint_blob_id is None:
            self.checkpoint_blob_id = yield from self.repository.clone_image(
                self.node_name, self.base_blob_id, version=self.remote.version,
                tag=f"checkpoint-image:{self.instance_id}",
            )
        return self.checkpoint_blob_id

    def commit(self, tag: str = "") -> Generator:
        """Simulation process: ``COMMIT`` -- publish the dirty blocks as a snapshot.

        Returns the :class:`WriteResult`; its ``version`` identifies the new
        incremental snapshot inside the checkpoint image.
        """
        if self.checkpoint_blob_id is None:
            raise SnapshotError(
                f"COMMIT before CLONE on instance {self.instance_id}"
            )
        # One entry per stored run inside each range of consecutive dirty
        # blocks: a file flushed in one piece is committed in one piece.
        block_size = self.spec.cow_block_size
        blocks: Dict[int, ByteSource] = {}
        for first, stop in self.dirty.close_epoch():
            start, length = first * block_size, (stop - first) * block_size
            for offset, payload in self._local.stored_runs(start, length):
                blocks[offset // block_size] = payload
        # The snapshot derives from the version this disk stands on, which a
        # rollback makes older than the checkpoint image's latest; a disk
        # still on the base image commits into a fresh clone's one version.
        blob_id, version = self.standing_on()[-1]
        base_version = version if blob_id == self.checkpoint_blob_id else None
        result: WriteResult = yield from self.repository.commit_blocks(
            self.node_name, self.checkpoint_blob_id, blocks,
            block_size=block_size, base_version=base_version,
            tag=tag or f"commit:{self.instance_id}",
        )
        self.committed_versions.append(result.version)
        self.commit_bytes_total += result.bytes_written
        return result
