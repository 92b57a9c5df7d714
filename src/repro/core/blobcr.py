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
  prefetching, and process state is restored by reading the checkpoint files;
* **migrate**: the same CLONE/COMMIT snapshots and lazy reads move a running
  instance to another node, pre-copy (COMMIT rounds while the guest runs)
  or post-copy (switch over at once, fault the open epoch in from the
  source); the pieces of the engine live in :mod:`repro.core.migration`.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence

from repro.blobseer.client import ChunkRanges
from repro.cluster.cloud import Cloud
from repro.core.backends import register_backend
from repro.core.baseimage import build_base_image
from repro.core.migration import MigrationRound, PostCopyPump, _Migration
from repro.core.mirroring import MirroringModule
from repro.core.proxy import CheckpointProxy
from repro.core.repository import CheckpointRepository
from repro.core.strategy import CheckpointRecord, DeployedInstance, Deployment
from repro.guest.filesystem import METADATA_REGION
from repro.util.errors import CheckpointError, FailureInjected, RestartError
from repro.util.ranges import add_range, overlap
from repro.vdisk.raw import RawImage


@register_backend(
    "blobcr",
    description="BlobSeer-backed incremental disk-image snapshots with pre-copy / post-copy "
    "live migration (the paper's proposal)",
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
        instance_prefix: str = "vm",
    ):
        super().__init__(cloud, instance_prefix=instance_prefix)
        self.repository = repository or CheckpointRepository(cloud)
        self._base_image = base_image
        self.base_blob_id: Optional[int] = None
        self.adaptive_prefetch = adaptive_prefetch
        self._proxies: Dict[str, CheckpointProxy] = {}
        #: chunk ranges already pulled close to the compute nodes; later boots
        #: of the same content hit this cache (adaptive prefetching, [25])
        self._prefetched: ChunkRanges = {}
        #: per-instance post-copy pumps still draining (the demand channel)
        self._postcopy: Dict[str, PostCopyPump] = {}
        #: the most recently drained pump, kept for inspection (the serve log
        #: is how the exactly-once contract is audited)
        self.last_pump: Optional[PostCopyPump] = None

    # -- infrastructure helpers ---------------------------------------------------------------

    def _proxy(self, node_name: str) -> CheckpointProxy:
        if node_name not in self._proxies:
            proxy = CheckpointProxy(self.hypervisors.get(node_name))
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
            base_version=version, checkpoint_blob_id=checkpoint_blob_id,
        )

    def _new_disk(self, instance_id: str, node_name: str) -> MirroringModule:
        return self._mirror(instance_id, node_name, self.base_blob_id)

    def _image_reader(self, instance: DeployedInstance):
        """The lazy-transfer boot reader of one instance."""
        instance_id = instance.instance_id
        mirroring: MirroringModule = instance.backend

        def reader(nbytes: float, label: str):
            def _fetch():
                # the base snapshot ends at its image's last written byte,
                # which can come before the boot window does
                window = mirroring.hot_chunk_ranges(0, int(min(nbytes, mirroring.remote.blob_size)))
                total = sum(stop - first for ranges in window.values() for first, stop in ranges)
                if self.adaptive_prefetch and total:
                    pulled = self._prefetched
                    hits = sum(overlap(r, pulled.get(blob, ())) for blob, r in window.items())
                    miss_fraction = (total - hits) / total
                else:
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
                for blob_id, ranges in window.items():
                    for first, stop in ranges:
                        add_range(self._prefetched.setdefault(blob_id, []), first, stop)
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
            with self.cloud.env.phase(
                "fault-in", instance.instance_id, bytes=restored, node=target_node
            ):
                yield from self.repository.fetch_hot_content(
                    target_node, restored, label=f"restore:{instance.instance_id}"
                )
                yield self.cloud.node(target_node).disk.write(
                    restored, label=f"restore-cache:{instance.instance_id}"
                )
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

    # -- live migration ------------------------------------------------------------------------

    def _destination_module(
        self, instance: DeployedInstance, target_node: str
    ) -> MirroringModule:
        """A mirroring module on the target, based at the latest durable version.

        Everything the source committed is reachable through the repository;
        an instance that never committed anything mounts the original base
        image, exactly like its own boot did.
        """
        mirroring: MirroringModule = instance.backend
        if mirroring.committed_versions:
            blob_id = mirroring.checkpoint_blob_id
            version = mirroring.committed_versions[-1]
        else:
            blob_id = mirroring.base_blob_id
            version = mirroring.remote.version
        return self._mirror(
            instance.instance_id, target_node, blob_id, version,
            checkpoint_blob_id=mirroring.checkpoint_blob_id,
        )

    def _rollback(self, call: _Migration, restore_paths: List[str]) -> Generator:
        """Simulation process: reboot the instance from the last durable snapshot.

        The live handover failed (the source died mid-migration); what
        survives is whatever the migration already made durable.  With no
        durable version there is nothing to roll back to and the failure
        propagates to the caller like any other fail-stop crash.
        """
        instance, mirroring = call.instance, call.mirroring
        if not mirroring.committed_versions:
            raise FailureInjected(
                f"source of {instance.instance_id} died before any migration "
                "round became durable",
                node=call.source_node,
            )
        instance.vm.terminate()
        record = CheckpointRecord(
            instance_id=instance.instance_id,
            snapshot_ref=(mirroring.checkpoint_blob_id, mirroring.committed_versions[-1]),
            snapshot_bytes=0,
            duration=0.0,
            restore_paths=restore_paths,
        )
        yield from self.restart_instance(instance, record, call.target_node)

    def migrate_instance(
        self,
        instance: DeployedInstance,
        target_node: str,
        mode: str = "pre-copy",
        demand_paths: Sequence[str] = (),
    ) -> Generator:
        """Simulation process: live-migrate one instance to ``target_node``.

        ``demand_paths`` (post-copy only) are guest files the workload
        touches right after the switchover; their blocks are served as
        demand faults from the source ahead of the background prefetch
        sweep.  Returns a :class:`~repro.core.migration.MigrationResult`.
        """
        source_node = self._begin_migration(
            instance, target_node, mode, ("pre-copy", "post-copy")
        )
        restore_paths = self._restore_paths(instance)
        call = _Migration(
            instance, instance.backend, mode, source_node, target_node, self.cloud.now
        )
        try:
            if mode == "pre-copy":
                result = yield from self._migrate_precopy(call)
            else:
                result = yield from self._migrate_postcopy(call, demand_paths)
        except FailureInjected:
            down_since = self.cloud.now if call.suspended_at is None else call.suspended_at
            yield from self._rollback(call, restore_paths)
            result = call.result(self.cloud.now, self.cloud.now - down_since, rolled_back=True)
        finally:
            self._postcopy.pop(instance.instance_id, None)
        self.migrations.append(result)
        return result

    def _run_round(self, call: _Migration, index: int, name: str) -> Generator:
        """Simulation process: one COMMIT round; returns a MigrationRound."""
        instance, mirroring = call.instance, call.mirroring
        t0 = self.cloud.now
        dirty = mirroring.dirty_bytes // mirroring.block_size
        with self.cloud.env.phase(
            "migrate-round", instance.instance_id, round=index, dirty_blocks=dirty
        ) as phase:
            if dirty:
                commit = yield from mirroring.commit(tag=f"migrate:{instance.instance_id}:{name}")
                moved = commit.bytes_written
            else:
                # An empty COMMIT would publish a pointless empty version; close
                # the epoch bookkeeping without touching the repository.
                mirroring.dirty.close_epoch()
                moved = 0
            phase.note(bytes=moved)
        return MigrationRound(
            index=index, dirty_blocks=dirty, bytes_moved=moved,
            duration_s=self.cloud.now - t0,
        )

    def _handover(self, call: _Migration) -> Generator:
        """Simulation process: the one suspension of a live migration.

        Suspend, flush the page cache, move what the destination must not
        find stale, ship the runtime state, resume on the target.  What must
        not be stale is where the modes differ: pre-copy COMMITs the residue,
        so the destination mounts a version that holds everything; post-copy
        ships only the file-system metadata blocks -- the destination mounts
        the guest file system before the guest resumes, so a stale inode table
        is not an option -- and leaves the rest of the open epoch on the
        source, behind the returned pump.  Returns ``(downtime, runtime-state
        bytes, residue bytes, pump)``.
        """
        instance, mirroring = call.instance, call.mirroring
        call.suspended_at = self.cloud.now
        with self.cloud.env.phase(
            "migrate-switchover", instance.instance_id, mode=call.mode
        ) as phase:
            yield from self.hypervisors.get(call.source_node).suspend(instance.vm)
            yield from self._flush_suspended_guest(instance)
            residue_bytes, pump = 0, None
            if call.mode == "pre-copy":
                residue = yield from self._run_round(call, len(call.rounds) + 1, "residue")
                residue_bytes = residue.bytes_moved
                destination = self._destination_module(instance, call.target_node)
            else:
                destination = self._destination_module(instance, call.target_node)
                pump = PostCopyPump(
                    self.cloud, call.source_node, call.target_node, destination,
                    mirroring.residue_payloads(), instance.instance_id,
                )
                yield from pump.fault_range(0, METADATA_REGION, channel="state")
            state_bytes = instance.vm.runtime_state_bytes
            yield self.cloud.network.transfer(
                call.source_node, call.target_node, state_bytes,
                label=f"migrate-state:{instance.instance_id}",
            )
            yield from self._hand_over(instance, destination, call.target_node)
            downtime = self.cloud.now - call.suspended_at
            phase.note(downtime_s=downtime)
        return downtime, state_bytes, residue_bytes, pump

    def _migrate_precopy(self, call: _Migration) -> Generator:
        yield from call.mirroring.clone()
        index = 0
        while True:
            index += 1
            round_ = yield from self._run_round(call, index, f"round-{index}")
            call.rounds.append(round_)
            if call.precopy_converged:
                break
        # Stop-and-copy: one short suspension covers the residue COMMIT, the
        # runtime-state transfer and the resume on the destination.
        downtime, state_bytes, residue_bytes, _pump = yield from self._handover(call)
        return call.result(
            self.cloud.now, downtime, residue_bytes=residue_bytes, state_bytes=state_bytes
        )

    def _migrate_postcopy(self, call: _Migration, demand_paths: Sequence[str]) -> Generator:
        # No copy phase before the handover: the destination mounts the last
        # *durable* version straight from the repository and every block the
        # guest wrote since (the open epoch) stays on the source, to be
        # served over the demand/prefetch channels after the switchover.
        instance = call.instance
        downtime, state_bytes, _residue, pump = yield from self._handover(call)
        self._postcopy[instance.instance_id] = pump
        # Demand phase: blocks of the files the workload touches right away
        # are served as remote faults, ahead of the background sweep.
        for path in demand_paths:
            yield from pump.fault_file(instance.vm.filesystem, path)
        with self.cloud.env.phase(
            "postcopy-sweep", instance.instance_id, pending_blocks=len(pump.pending)
        ):
            yield from pump.prefetch_sweep()
        self.last_pump = pump
        # Metadata blocks count as switchover state, not as demand faults:
        # the guest never waited on them after resuming.
        return call.result(
            self.cloud.now,
            downtime,
            state_bytes=state_bytes + pump.state_bytes,
            remote_faults=pump.remote_faults,
            remote_fault_bytes=pump.remote_fault_bytes,
            prefetched_blocks=pump.prefetched_blocks,
            prefetched_bytes=pump.prefetched_bytes,
        )

    # -- the post-copy demand channel --------------------------------------------------------

    def guest_read(self, instance: DeployedInstance, path: str) -> Generator:
        """Simulation process: read a guest file, faulting in post-copy blocks.

        While a post-copy migration is draining, reads go through the
        demand channel first: blocks of the file still pending on the
        source are shipped (and accounted as remote faults) before the
        local read proceeds.
        """
        pump = self._postcopy.get(instance.instance_id)
        if pump is not None and not pump.drained:
            yield from pump.fault_file(instance.vm.filesystem, path)
        data = yield from super().guest_read(instance, path)
        return data
