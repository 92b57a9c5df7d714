"""The distributed checkpoint repository (BlobSeer deployed on the cloud).

One data provider runs on every compute node's local disk; the version
manager, provider manager and metadata providers run on dedicated service
nodes.  The repository persistently stores base disk images and checkpoint
images as BLOBs, striped into chunks across the providers.

The class couples the functional BlobSeer core (:mod:`repro.blobseer`) with
the timing model: every operation is a simulation process (generator) that
charges network / disk / RPC time proportional to the bytes and metadata the
functional layer actually produced.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.blobseer import BlobClient, DataProvider, ProviderManager
from repro.cluster.cloud import Cloud
from repro.dedup.codec import HEADER_BYTES
from repro.dedup.engine import build_engine
from repro.util.bytesource import ByteSource
from repro.vdisk.raw import RawImage


class CheckpointRepository:
    """BlobSeer-backed checkpoint repository spanning the compute nodes."""

    def __init__(self, cloud: Cloud):
        self.cloud = cloud
        self.spec = cloud.spec.blobseer
        providers = ProviderManager(replication=self.spec.replication, tracer=cloud.env.tracer)
        for node in cloud.compute_nodes:
            provider = DataProvider(node.name, capacity=cloud.spec.disk.capacity)
            providers.register(provider)
            node.on_failure(lambda failed, p=provider: p.fail())
        # Content-addressed dedup + compression layer (None when disabled).
        self.dedup = build_engine(self.spec.dedup)
        self.client = BlobClient(
            providers=providers, default_chunk_size=self.spec.chunk_size, dedup=self.dedup
        )
        # Service placement: the version manager, the one service operations
        # send messages to, runs on the first service node.
        service_names = [n.name for n in cloud.service_nodes] or [cloud.compute_nodes[0].name]
        self.version_manager_node = service_names[0]
        # Aggregate data-path capacity of the provider pool.
        disk_bw = cloud.spec.disk.bandwidth
        n_providers = len(cloud.compute_nodes)
        bandwidth = cloud.network.bandwidth
        self.ingest_channel = bandwidth.channel(
            max(1.0, n_providers * disk_bw * self.spec.io_efficiency), "blobseer.ingest"
        )
        self.egress_channel = bandwidth.channel(
            max(1.0, n_providers * disk_bw * self.spec.io_efficiency), "blobseer.egress"
        )
        #: counters
        self.bytes_committed = 0
        self.logical_bytes_committed = 0

    # -- timing helpers -------------------------------------------------------------------

    def _data_write(self, client_node: str, nbytes: float, label: str):
        channels = [
            self.cloud.network.nic_tx(client_node), self.cloud.network.switch, self.ingest_channel
        ]
        return self.cloud.network.bandwidth.transfer(
            nbytes, channels,
            latency=self.cloud.spec.network.latency + self.spec.rpc_overhead,
            label=label,
        )

    def _data_read(self, client_node: str, nbytes: float, label: str):
        channels = [
            self.egress_channel, self.cloud.network.switch, self.cloud.network.nic_rx(client_node)
        ]
        return self.cloud.network.bandwidth.transfer(
            nbytes, channels,
            latency=self.cloud.spec.network.latency + self.spec.rpc_overhead,
            label=label,
        )

    def _metadata_time(self, chunk_count: int, metadata_nodes: int) -> float:
        """Time to persist metadata for a commit across the metadata providers.

        The distributed segment tree spreads node writes over
        ``spec.metadata_providers`` services, so the cost is divided by the
        deployment width.
        """
        per_node = self.spec.metadata_per_chunk * max(1, metadata_nodes)
        return (
            per_node / max(1, self.spec.metadata_providers)
            + self.spec.rpc_overhead * max(1, chunk_count) / max(1, self.spec.metadata_providers)
        )

    # -- image / checkpoint operations -----------------------------------------------------

    def upload_base_image(
        self, client_node: str, image: RawImage, tag: str = "base-image"
    ) -> Generator:
        """Simulation process: store a raw base image as a new BLOB.

        Only the allocated (non-hole) content is shipped; the BLOB's logical
        size is the full virtual disk size so clones expose a complete disk.
        """
        blob_id = self.client.create_blob(self.spec.chunk_size, tag=tag)
        pieces: List[Tuple[int, ByteSource]] = list(image.stored_runs())
        result = self.client.write_batch(blob_id, pieces, tag=tag) if pieces else None
        nbytes = result.bytes_written if result else 0
        env = self.cloud.env
        with env.phase("upload-base", client_node, blob_id=blob_id, bytes=nbytes):
            yield self.cloud.network.message(
                client_node, self.version_manager_node, label="create-blob"
            )
            if result and result.compression_cpu_seconds:
                yield env.timeout(result.compression_cpu_seconds)
            if nbytes:
                with env.phase("blob-write", client_node, bytes=nbytes):
                    yield self._data_write(client_node, nbytes, label=f"upload:{tag}")
            if result:
                # Dedup-hit stripes still publish a descriptor, so they count
                # toward the metadata RPCs even though no data shipped.
                with env.phase("metadata-commit", client_node):
                    yield env.timeout(self._metadata_time(
                        result.chunk_count + result.dedup_hits, result.metadata_nodes))
                self.logical_bytes_committed += result.logical_bytes
            self.bytes_committed += nbytes
        return blob_id

    def clone_image(
        self, client_node: str, blob_id: int, version: Optional[int] = None, tag: str = ""
    ) -> Generator:
        """Simulation process: CLONE -- derive a checkpoint image from a base image."""
        new_blob = self.client.clone(blob_id, version=version, tag=tag)
        # Cloning only touches the version manager and shares all metadata.
        yield self.cloud.network.message(client_node, self.version_manager_node, label="clone")
        yield self.cloud.env.timeout(self.spec.rpc_overhead)
        return new_blob

    def commit_blocks(
        self,
        client_node: str,
        blob_id: int,
        blocks: Dict[int, ByteSource],
        block_size: int,
        tag: str = "",
        base_version: Optional[int] = None,
    ) -> Generator:
        """Simulation process: COMMIT -- publish dirty blocks as one incremental snapshot.

        ``blocks`` maps a block index to the content starting there: one
        block, or a run of consecutive whole blocks in one payload.  The
        snapshot derives from ``base_version`` (the latest by default).
        Returns the :class:`~repro.blobseer.client.WriteResult` of the commit.
        """
        pieces = [(index * block_size, payload) for index, payload in sorted(blocks.items())]
        result = self.client.write_batch(
            blob_id, pieces, base_version=base_version, tag=tag or "commit"
        )
        env = self.cloud.env
        with env.phase("commit", client_node, blob_id=blob_id, version=result.version) as phase:
            yield self.cloud.network.message(
                client_node, self.version_manager_node, label="commit"
            )
            if result.compression_cpu_seconds:
                # Fingerprinting + compression runs on the committing node's CPU.
                yield env.timeout(result.compression_cpu_seconds)
            if result.bytes_written:
                with env.phase("blob-write", client_node, bytes=result.bytes_written):
                    yield self._data_write(
                        client_node, result.bytes_written,
                        label=f"commit:{blob_id}@{result.version}",
                    )
            with env.phase("metadata-commit", client_node, chunks=result.chunk_count):
                yield env.timeout(self._metadata_time(
                    result.chunk_count + result.dedup_hits, result.metadata_nodes))
            self.bytes_committed += result.bytes_written
            self.logical_bytes_committed += result.logical_bytes
            phase.note(bytes=result.bytes_written)
        return result

    def read_range(
        self,
        client_node: str,
        blob_id: int,
        offset: int,
        size: int,
        version: Optional[int] = None,
        label: str = "",
    ) -> Generator:
        """Simulation process: read a byte range of a snapshot on ``client_node``."""
        data = self.client.read(blob_id, offset, size, version=version)
        env = self.cloud.env
        with env.phase("blob-read", client_node, blob_id=blob_id, bytes=size):
            yield self.cloud.network.message(client_node, self.version_manager_node, label="read")
            if size > 0:
                label = label or f"read:{blob_id}"
                if self.dedup is None:
                    yield self._data_read(client_node, size, label=label)
                else:
                    # Chunks travel compressed and are inflated on the reading
                    # node; holes and header-only zero chunks cost (almost)
                    # nothing on either axis.
                    physical, inflatable = self._read_window_cost(blob_id, offset, size, version)
                    if physical > 0:
                        yield self._data_read(client_node, physical, label=label)
                    cpu = self.dedup.codec.decompress_seconds(inflatable)
                    if cpu > 0:
                        yield env.timeout(cpu)
        return data

    def _read_window_cost(
        self, blob_id: int, offset: int, size: int, version: Optional[int]
    ) -> Tuple[float, int]:
        """(physical bytes to transfer, logical bytes to inflate) for a read.

        Only meaningful with the dedup layer on: stored chunks are shipped at
        their compressed footprint (a stripe that shares a stored chunk ships
        that chunk) and only content that was actually compressed charges
        decompression CPU.  Holes transfer nothing.
        """
        client = self.client
        if version is None:
            version = client.latest_version(blob_id)
        chunk_size = client.version_manager.get(blob_id).chunk_size
        end = offset + size
        physical = 0.0
        inflatable = 0
        for run, first, last in client.metadata.extents_in_range(
            blob_id, version, offset // chunk_size, (end - 1) // chunk_size
        ):
            stored = run.stored.stored_size
            for stripe in range(first, last + 1):
                length = run.last_length if stripe == run.last_stripe else run.stripe_length
                window = min(end, (stripe + 1) * chunk_size) - max(offset, stripe * chunk_size)
                physical += stored * (window / length)
                if stored > HEADER_BYTES:
                    inflatable += window
        return physical, inflatable

    def fetch_hot_content(self, client_node: str, nbytes: float, label: str = "") -> Generator:
        """Simulation process: charge the transfer of lazily fetched image content.

        Used for boot-time working sets and on-demand reads whose contents
        are served functionally by a :class:`RemoteBlobDevice`.
        """
        if nbytes > 0:
            with self.cloud.env.phase("hot-fetch", client_node, bytes=int(nbytes)):
                yield self._data_read(client_node, nbytes, label=label or "lazy-fetch")
        else:  # pragma: no cover - degenerate
            yield self.cloud.env.timeout(0)

    # -- accounting -------------------------------------------------------------------------

    @property
    def total_stored_bytes(self) -> int:
        """Physical bytes across all providers (Figure 5b accounting)."""
        return self.client.storage_footprint()
