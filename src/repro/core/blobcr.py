"""The BlobCR deployment strategy (the paper's proposal).

``BlobCRDeployment`` wires the checkpoint repository, the mirroring modules,
the checkpointing proxies and the hypervisors into the workflow of Figure 1:

* **deploy**: the base image is uploaded (striped) into the repository once;
  every instance boots on top of a mirroring module that lazily fetches hot
  image content and keeps guest writes as local copy-on-write blocks;
* **checkpoint**: the guest (application or MPI library) first writes process
  state into its file system (stage 1, driven by the applications /
  :mod:`repro.core.protocol`); the proxy then suspends the VM, performs
  ``CLONE`` + ``COMMIT`` through the mirroring module and resumes it
  (stage 2);
* **restart**: instances are re-deployed on different nodes using their
  checkpoint-image snapshot as the underlying virtual disk; booting fetches
  only the hot content (lazy transfer), exploiting peer accesses via adaptive
  prefetching, and process state is restored by reading the checkpoint files.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Set

from repro.cluster.cloud import Cloud
from repro.cluster.hypervisor import DEFAULT_BOOT_READ_BYTES
from repro.core.backends import BackendCapabilities, register_backend
from repro.core.baseimage import build_base_image
from repro.core.mirroring import MirroringModule
from repro.core.proxy import CheckpointProxy
from repro.core.repository import CheckpointRepository
from repro.core.strategy import CheckpointRecord, DeployedInstance, Deployment
from repro.obs.tracer import TRACER
from repro.util.errors import CheckpointError, RestartError
from repro.vdisk.raw import RawImage


@register_backend(
    "blobcr",
    capabilities=BackendCapabilities(incremental=True, dedup_capable=True),
    description="BlobSeer-backed incremental disk-image snapshots (the paper's proposal)",
)
class BlobCRDeployment(Deployment):
    """Deployment strategy backed by BlobSeer disk-image snapshots."""

    name = "BlobCR"

    def __init__(
        self,
        cloud: Cloud,
        repository: Optional[CheckpointRepository] = None,
        base_image: Optional[RawImage] = None,
        adaptive_prefetch: bool = True,
        boot_read_bytes: float = DEFAULT_BOOT_READ_BYTES,
        instance_prefix: str = "vm",
    ):
        super().__init__(cloud, instance_prefix=instance_prefix, boot_read_bytes=boot_read_bytes)
        self.repository = repository or CheckpointRepository(cloud)
        self._base_image = base_image
        self.base_blob_id: Optional[int] = None
        self.adaptive_prefetch = adaptive_prefetch
        self._proxies: Dict[str, CheckpointProxy] = {}
        #: chunk keys already pulled close to the compute nodes; later boots
        #: of the same content hit this cache (adaptive prefetching, [25])
        self._prefetched_keys: Set = set()

    # -- infrastructure helpers ---------------------------------------------------------------

    def _proxy(self, node_name: str) -> CheckpointProxy:
        if node_name not in self._proxies:
            proxy = CheckpointProxy(self.hypervisors.get(node_name), self.cloud.spec.checkpoint)
            self._proxies[node_name] = proxy
        return self._proxies[node_name]

    def ensure_base_image(self) -> Generator:
        """Simulation process: upload the base image into the repository once."""
        if self.base_blob_id is not None:
            return self.base_blob_id
        if self._base_image is None:
            self._base_image = build_base_image(self.cloud.spec)
        self.base_blob_id = yield from self.repository.upload_base_image(
            self.cloud.compute_nodes[0].name, self._base_image, tag="base-image"
        )
        return self.base_blob_id

    def _mirror(
        self,
        instance_id: str,
        node_name: str,
        blob_id: int,
        version: Optional[int] = None,
        checkpoint_blob_id: Optional[int] = None,
    ) -> MirroringModule:
        """A mirroring module on ``node_name`` over ``version`` of ``blob_id``;
        ``checkpoint_blob_id`` is the checkpoint image its COMMITs continue."""
        return MirroringModule(
            self.repository, node_name, instance_id, blob_id,
            base_version=version, disk_size=self.cloud.spec.vm.disk_size,
            spec=self.cloud.spec.checkpoint, checkpoint_blob_id=checkpoint_blob_id,
        )

    def _new_disk(self, instance_id: str, node_name: str) -> MirroringModule:
        return self._mirror(instance_id, node_name, self.base_blob_id)

    def _image_reader(self, instance: DeployedInstance):
        """The lazy-transfer boot reader of one instance."""
        instance_id = instance.instance_id
        mirroring: MirroringModule = instance.backend

        def reader(nbytes: float, label: str):
            def _fetch():
                keys = mirroring.hot_chunk_keys(0, int(min(nbytes, mirroring.size)))
                if self.adaptive_prefetch and keys:
                    missing = keys - self._prefetched_keys
                    miss_fraction = len(missing) / len(keys)
                else:
                    missing = keys
                    miss_fraction = 1.0
                miss_bytes = nbytes * miss_fraction
                hit_bytes = nbytes - miss_bytes
                if miss_bytes > 0:
                    yield from self.repository.fetch_hot_content(
                        mirroring.node_name, miss_bytes, label=f"{label}:remote"
                    )
                if hit_bytes > 0:
                    # Content prefetched thanks to faster peers is already on
                    # the local disk of the compute node.
                    yield self.cloud.node(mirroring.node_name).disk.read(
                        hit_bytes, label=f"{label}:prefetched"
                    )
                self._prefetched_keys |= keys
                return nbytes

            return self.cloud.process(_fetch(), name=f"lazy-boot:{instance_id}")

        return reader

    # -- Deployment interface ----------------------------------------------------------------------

    def checkpoint_instance(self, instance: DeployedInstance, tag: str = "") -> Generator:
        mirroring: MirroringModule = instance.backend
        proxy = self._proxy(instance.node_name)
        started = self.cloud.now
        reply = yield from proxy.handle_request(instance.vm, mirroring, tag=tag)
        if not reply.ok:
            raise CheckpointError(f"snapshot of {instance.instance_id} failed")
        return CheckpointRecord(
            instance_id=instance.instance_id,
            snapshot_ref=(reply.checkpoint_blob_id, reply.snapshot_version),
            snapshot_bytes=reply.snapshot_bytes,
            duration=self.cloud.now - started,
            restore_paths=self._restore_paths(instance),
        )

    def restart_instance(
        self, instance: DeployedInstance, record: CheckpointRecord, target_node: str
    ) -> Generator:
        blob_id, version = record.snapshot_ref
        if blob_id is None:
            raise RestartError(f"no checkpoint image recorded for {instance.instance_id}")
        mirroring = self._mirror(
            instance.instance_id, target_node, blob_id, version, checkpoint_blob_id=blob_id
        )
        # Restoring process state reads the checkpoint files back: a lazy
        # fetch of exactly the snapshot content that is actually needed.
        restored = yield from self._reboot_and_read_back(instance, mirroring, target_node, record)
        if restored:
            span = None
            if TRACER.enabled:
                span = TRACER.begin(
                    "fault-in", instance.instance_id, self.cloud.now,
                    args={"bytes": restored, "node": target_node},
                )
            yield from self.repository.fetch_hot_content(
                target_node, restored, label=f"restore:{instance.instance_id}"
            )
            yield self.cloud.node(target_node).disk.write(
                restored, label=f"restore-cache:{instance.instance_id}"
            )
            if span is not None:
                TRACER.end(span, self.cloud.now)
        return restored

    def storage_used_bytes(self) -> int:
        return self.repository.total_stored_bytes

    # -- additional BlobCR-specific facilities -----------------------------------------------------

    def download_checkpoint_image(self, client_node: str, record: CheckpointRecord) -> Generator:
        """Simulation process: download a checkpoint snapshot as a standalone image.

        Thanks to shadowing and cloning, checkpoint images are fully fledged
        disk images the cloud client can download and inspect (Section 3.2).
        """
        blob_id, version = record.snapshot_ref
        size = self.repository.client.size(blob_id, version)
        data = yield from self.repository.read_range(
            client_node, blob_id, 0, size, version=version, label="download"
        )
        return data
