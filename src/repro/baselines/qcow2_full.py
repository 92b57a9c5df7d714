"""The ``qcow2-full`` baseline: full VM snapshots via ``savevm`` + PVFS.

The whole VM state (virtual disk *and* RAM, CPU registers, device state) is
dumped into the qcow2 image with the ``savevm`` monitor command, and the
image is stored persistently on PVFS.  An unlimited number of read-only
internal snapshots accumulate inside the same image, so only the latest copy
of the file needs to be kept -- but that file contains everything, which is
why both the checkpoint time and the restart time are the worst of the five
approaches even though restart avoids rebooting the guest.
"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.baselines.common import QcowPVFSDeployment
from repro.core.backends import BackendCapabilities, register_backend
from repro.core.migration import MigrationResult
from repro.core.strategy import CheckpointRecord, DeployedInstance
from repro.vdisk.qcow2 import QcowImage


@register_backend(
    "qcow2-full",
    capabilities=BackendCapabilities(live_migration=True),
    description="savevm full VM snapshots (disk + RAM + devices) copied to PVFS",
)
class Qcow2FullDeployment(QcowPVFSDeployment):
    """Full VM snapshots stored on PVFS (``qcow2-full``)."""

    name = "qcow2-full"

    def _snapshot_file_name(self, instance: DeployedInstance) -> str:
        # A single file per instance: internal snapshots accumulate inside it
        # and each checkpoint overwrites the stored copy with the newer,
        # larger version.
        return f"snapshots/{instance.instance_id}/full.qcow2"

    def checkpoint_instance(self, instance: DeployedInstance, tag: str = "") -> Generator:
        overlay: QcowImage = instance.backend
        hypervisor = self.hypervisors.get(instance.node_name)
        started = self.cloud.now
        snapshot_name = f"ckpt-{self._checkpoint_index:04d}"
        # savevm: suspend, dump RAM + device state into the image, resume.
        yield from hypervisor.savevm(instance.vm, overlay, snapshot_name)
        file_name = self._snapshot_file_name(instance)
        size = yield from self._copy_image_to_pvfs(instance, overlay, file_name)
        return CheckpointRecord(
            instance_id=instance.instance_id,
            snapshot_ref=(file_name, snapshot_name),
            snapshot_bytes=size,
            duration=self.cloud.now - started,
            restore_paths=[],  # processes resume from RAM, nothing to re-read
        )

    def restart_instance(
        self, instance: DeployedInstance, record: CheckpointRecord, target_node: str
    ) -> Generator:
        file_name, snapshot_name = record.snapshot_ref
        # The full snapshot (disk content + saved RAM/device state) must be
        # read back before the VM can resume; this is what cancels the
        # benefit of skipping the reboot (Section 4.3.1).
        overlay = yield from self._fetch_snapshot_image(target_node, file_name, lazy_bytes=None)
        snapshot = overlay.revert_to_internal_snapshot(snapshot_name)
        instance.backend = overlay
        instance.vm.host = target_node
        yield from self.hypervisors.get(target_node).resume_from_snapshot(instance.vm, overlay)
        # RAM and device state are restored in place; report the volume that
        # had to be transferred to bring the process state back.
        return snapshot.vm_state_size

    def migrate_instance(
        self,
        instance: DeployedInstance,
        target_node: str,
        mode: str = "stop-and-copy",
        demand_paths: Sequence[str] = (),
    ) -> Generator:
        """Simulation process: monolithic stop-and-copy migration.

        ``savevm`` snapshots are all-or-nothing, so the only migration this
        baseline can offer is the classic suspend / copy-everything / resume:
        the guest stays frozen while the full image (disk content plus the
        saved RAM and device state) is pushed through PVFS and read back on
        the destination.  The whole window is downtime -- the number the
        live pre-copy algorithm of ``blobcr-migrate`` is built to beat.
        Failures mid-copy propagate: with a single monolithic transfer there
        is no durable intermediate round to roll back to.
        """
        source_node = self._begin_migration(instance, target_node, mode, ("stop-and-copy",))
        overlay: QcowImage = instance.backend
        started = self.cloud.now
        # Suspend for the whole transfer; flush the page cache so the copied
        # image holds the current file contents.
        yield from self.hypervisors.get(source_node).suspend(instance.vm)
        yield from self._flush_suspended_guest(instance)
        state_bytes = instance.vm.runtime_state_bytes
        snapshot_name = f"migrate-{len(overlay.internal_snapshots):04d}"
        overlay.create_internal_snapshot(snapshot_name, vm_state_size=state_bytes)
        yield self.cloud.node(source_node).disk.write(
            state_bytes, label=f"migrate-state:{instance.instance_id}"
        )
        file_name = self._snapshot_file_name(instance)
        size = yield from self._copy_image_to_pvfs(instance, overlay, file_name)
        new_overlay = yield from self._fetch_snapshot_image(
            target_node, file_name, lazy_bytes=None
        )
        new_overlay.revert_to_internal_snapshot(snapshot_name)
        yield from self._hand_over(instance, new_overlay, target_node)
        result = MigrationResult(
            instance_id=instance.instance_id,
            mode=mode,
            source_node=source_node,
            target_node=target_node,
            started_at=started,
            finished_at=self.cloud.now,
            downtime_s=self.cloud.now - started,
            residue_bytes=size,
            state_bytes=state_bytes,
        )
        self.migrations.append(result)
        return result
