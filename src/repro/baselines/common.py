"""Shared machinery of the qcow2-over-PVFS baselines."""

from __future__ import annotations

from typing import Generator, Optional

from repro.cluster.cloud import Cloud
from repro.cluster.pvfs import PVFSDeployment
from repro.core.baseimage import build_base_image
from repro.core.strategy import DeployedInstance, Deployment
from repro.util.errors import RestartError
from repro.vdisk.qcow2 import QcowImage
from repro.vdisk.raw import RawImage

#: PVFS file name of the shared base image
BASE_IMAGE_FILE = "images/base.raw"


class QcowPVFSDeployment(Deployment):
    """What the qcow2-over-PVFS baselines share: where their disks live.

    The base raw image lives in PVFS and is accessible on every compute node
    through a local mount point; each instance gets a local qcow2 overlay
    created with ``qemu-img create -b base.raw`` that absorbs its writes.
    """

    name = "qcow2-common"

    def __init__(self, cloud: Cloud, instance_prefix: str = "vm"):
        super().__init__(cloud, instance_prefix=instance_prefix)
        self.pvfs = PVFSDeployment(cloud)
        self._base_image: Optional[RawImage] = None
        self._base_uploaded = False

    # -- infrastructure helpers -----------------------------------------------------------

    def ensure_base_image(self) -> Generator:
        """Simulation process: store the base raw image in PVFS once."""
        if self._base_uploaded:
            return self._base_image
        if self._base_image is None:
            self._base_image = build_base_image(self.cloud.spec)
        # The raw file is sparse; only its allocated content crosses the wire.
        yield from self.pvfs.write_file(
            self.cloud.compute_nodes[0].name, BASE_IMAGE_FILE,
            self._base_image.allocated_bytes, payload=self._base_image,
        )
        self._base_uploaded = True
        return self._base_image

    def _image_reader(self, instance: DeployedInstance):
        """Boot-time hot content is read from the base image through PVFS."""
        instance_id, node_name = instance.instance_id, instance.node_name

        def reader(nbytes: float, label: str):
            def _fetch():
                yield from self.pvfs.read_file(node_name, BASE_IMAGE_FILE, size=int(nbytes))
                return nbytes

            return self.cloud.process(_fetch(), name=f"pvfs-boot:{instance_id}")

        return reader

    def _new_disk(self, instance_id: str, node_name: str) -> QcowImage:
        """A local qcow2 overlay (``qemu-img create -b base.raw``)."""
        return QcowImage(
            self.cloud.spec.vm.disk_size,
            cluster_size=self.cloud.spec.checkpoint.qcow2_cluster_size,
            backing=self._base_image,
            name=f"{instance_id}.qcow2",
        )

    # -- shared snapshot helpers ----------------------------------------------------------------

    def _copy_image_to_pvfs(
        self, instance: DeployedInstance, overlay: QcowImage, file_name: str
    ) -> Generator:
        """Simulation process: ``cp`` the local qcow2 file into PVFS."""
        node_name = instance.node_name
        size = overlay.file_size
        yield self.cloud.node(node_name).disk.read(size, label=f"read-qcow:{file_name}")
        yield from self.pvfs.write_file(
            node_name, file_name, size, payload=overlay.clone_file(file_name)
        )
        return size

    def _fetch_snapshot_image(
        self, node_name: str, file_name: str, lazy_bytes: Optional[float] = None
    ) -> Generator:
        """Simulation process: make a stored snapshot image usable on ``node_name``.

        ``lazy_bytes`` limits the transfer to the hot content actually needed
        (the qcow2 file is accessible through the PVFS mount point, so only
        read pages cross the network); ``None`` reads the whole file.
        """
        if not self.pvfs.exists(file_name):
            raise RestartError(f"snapshot image {file_name} not found in PVFS")
        entry = yield from self.pvfs.read_file(
            node_name, file_name,
            size=int(lazy_bytes) if lazy_bytes is not None else None,
        )
        payload = entry.payload
        if not isinstance(payload, QcowImage):
            raise RestartError(f"PVFS file {file_name} does not hold a qcow2 image")
        return payload.clone_file(f"{file_name}@{node_name}")

    def storage_used_bytes(self) -> int:
        return self.pvfs.total_stored_bytes
