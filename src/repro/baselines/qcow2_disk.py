"""The ``qcow2-disk`` baseline: qcow2 disk snapshots copied to PVFS.

On every checkpoint request the proxy simply copies the instance's local
qcow2 image (which holds all local modifications since deployment) to PVFS as
a new file.  Because qcow2 offers no transparent incremental snapshotting
while the hypervisor is running, every copy contains everything written so
far: the copied file grows checkpoint after checkpoint (linear completion
time in Figure 5a) and consecutive snapshot files accumulate duplicate data
(the storage blow-up of Figure 5b).
"""

from __future__ import annotations

from typing import Generator

from repro.baselines.common import QcowPVFSDeployment
from repro.core.backends import register_backend
from repro.core.strategy import CheckpointRecord, DeployedInstance
from repro.util.errors import RestartError
from repro.vdisk.qcow2 import QcowImage


@register_backend(
    "qcow2-disk",
    description="full qcow2 disk-image copies to PVFS on every checkpoint",
)
class Qcow2DiskDeployment(QcowPVFSDeployment):
    """Disk-only qcow2 snapshots stored on PVFS (``qcow2-disk-app/blcr``)."""

    name = "qcow2-disk"

    def _snapshot_file_name(self, instance: DeployedInstance) -> str:
        index = self._checkpoint_index
        return f"snapshots/{instance.instance_id}/disk-{index:04d}.qcow2"

    def checkpoint_instance(self, instance: DeployedInstance, tag: str = "") -> Generator:
        overlay: QcowImage = instance.backend
        hypervisor = self.hypervisors.get(instance.node_name)
        started = self.cloud.now
        yield self.cloud.env.timeout(self.cloud.spec.checkpoint.proxy_roundtrip)
        yield from hypervisor.suspend(instance.vm)
        file_name = self._snapshot_file_name(instance)
        size = yield from self._copy_image_to_pvfs(instance, overlay, file_name)
        yield from hypervisor.resume(instance.vm)
        return CheckpointRecord(
            instance_id=instance.instance_id,
            snapshot_ref=file_name,
            snapshot_bytes=size,
            duration=self.cloud.now - started,
            restore_paths=self._restore_paths(instance),
        )

    def restart_instance(
        self, instance: DeployedInstance, record: CheckpointRecord, target_node: str
    ) -> Generator:
        file_name = record.snapshot_ref
        if not isinstance(file_name, str):
            raise RestartError(f"invalid snapshot reference {file_name!r}")
        # Lazy access through the PVFS mount point: only the qcow2 header and
        # mapping tables are needed up front; data clusters are read on demand
        # (boot working set + checkpoint files, charged below).
        metadata_bytes = max(64 * 1024, int(0.02 * record.snapshot_bytes))
        overlay = yield from self._fetch_snapshot_image(
            target_node, file_name, lazy_bytes=metadata_bytes
        )
        restored = yield from self._reboot_and_read_back(instance, overlay, target_node, record)
        if restored:
            yield from self.pvfs.read_file(target_node, file_name, size=restored)
            yield self.cloud.node(target_node).disk.write(
                restored, label=f"restore-cache:{instance.instance_id}"
            )
        return restored
