"""Common deployment / checkpoint / restart interface.

BlobCR and the two qcow2-over-PVFS baselines are all expressed as
:class:`Deployment` subclasses so that the applications, the scenario
layer and the benchmarks can drive them interchangeably:

* ``deploy(n)`` -- multi-deployment of ``n`` instances from the base image,
* ``checkpoint_all()`` -- take a global checkpoint (stage 2 of the paper's
  two-stage procedure; stage 1 -- getting process state into guest files --
  is performed by the application or the coordinated protocol beforehand),
* ``restart_all(checkpoint)`` -- kill everything and re-deploy every instance
  on a different node from its snapshot, remounting the guest file system and
  charging the reads needed to restore process state.

The strategies differ only in *where the virtual disk lives and how a
snapshot of it is taken*, and that is all a strategy supplies (the abstract
methods of :class:`Deployment`): its base-image staging, the virtual disk of
a fresh instance, its boot-image reader, its snapshot, and how a stored
snapshot becomes a disk on another node.  The fixed part of every phase --
place, build the VM, boot, OS noise, spawn the ranks; the restore-path
listing and read-back; the preconditions and the handover of a migration --
is written once, here.

Every method that advances simulated time is a generator meant to be wrapped
in ``cloud.process(...)`` (or driven by ``yield from`` inside another
process).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.cluster.cloud import Cloud
from repro.cluster.hypervisor import DEFAULT_BOOT_READ_BYTES, HypervisorCache, ImageReader
from repro.guest.filesystem import GuestFileSystem
from repro.guest.osnoise import write_boot_noise
from repro.guest.vm import VMInstance
from repro.util.bytesource import ByteSource
from repro.util.errors import CheckpointError, MigrationError, RestartError
from repro.vdisk.blockdev import BlockDevice


@dataclass
class CheckpointRecord:
    """Snapshot of one instance inside a global checkpoint."""

    instance_id: str
    #: strategy-specific identifier of the stored snapshot
    #: (BlobCR: (blob id, version); baselines: PVFS file name)
    snapshot_ref: Any
    #: bytes this snapshot added to persistent storage
    snapshot_bytes: int
    #: wall-clock (simulated) duration of the per-instance snapshot
    duration: float
    #: files the instance must read back to restore process state
    restore_paths: List[str] = field(default_factory=list)


@dataclass
class GlobalCheckpoint:
    """A globally consistent set of per-instance snapshots."""

    index: int
    started_at: float
    finished_at: float
    records: Dict[str, CheckpointRecord] = field(default_factory=dict)

    @property
    def total_snapshot_bytes(self) -> int:
        return sum(r.snapshot_bytes for r in self.records.values())

    @property
    def max_snapshot_bytes(self) -> int:
        return max((r.snapshot_bytes for r in self.records.values()), default=0)


@dataclass
class DeployedInstance:
    """One VM instance managed by a deployment strategy."""

    instance_id: str
    vm: VMInstance
    #: the instance's virtual disk (mirroring module, local qcow2 image, ...)
    backend: Any = None

    @property
    def node_name(self) -> str:
        """The compute node the instance is placed on: ``vm.host``, the one
        record of placement (written by the placement code of every phase)."""
        return self.vm.host

    @property
    def filesystem(self) -> GuestFileSystem:
        return self.vm.filesystem


@dataclass
class RestartReport:
    """Outcome of a global restart."""

    started_at: float
    finished_at: float
    instances: List[str] = field(default_factory=list)
    bytes_restored: int = 0


class Deployment(abc.ABC):
    """Base class of the three evaluated checkpoint-restart strategies."""

    #: label used by the scenario layer ("BlobCR", "qcow2-disk", "qcow2-full")
    name: str = "abstract"

    def __init__(
        self,
        cloud: Cloud,
        instance_prefix: str = "vm",
        boot_read_bytes: float = DEFAULT_BOOT_READ_BYTES,
    ):
        self.cloud = cloud
        #: instance-id prefix (``vm`` -> ``vm-000``); the service layer gives
        #: every tenant deployment its own prefix so ids stay unique on a
        #: shared cloud
        self.instance_prefix = instance_prefix
        #: bytes of the image a booting guest touches (see the hypervisor)
        self.boot_read_bytes = boot_read_bytes
        self.instances: List[DeployedInstance] = []
        self.checkpoints: List[GlobalCheckpoint] = []
        #: completed live migrations, in completion order (populated by the
        #: backends that implement ``migrate_instance``)
        self.migrations: List[Any] = []
        #: per-node hypervisors, shared by every phase of the strategy
        self.hypervisors = HypervisorCache(cloud)
        self._checkpoint_index = 0

    # -- to be provided by each strategy ------------------------------------------------------

    @abc.abstractmethod
    def ensure_base_image(self) -> Generator:
        """Simulation process: stage the base image in the strategy's storage, once."""

    @abc.abstractmethod
    def _new_disk(self, instance_id: str, node_name: str) -> BlockDevice:
        """The virtual disk of a fresh instance on ``node_name``, over the base image."""

    @abc.abstractmethod
    def _image_reader(self, instance: DeployedInstance) -> ImageReader:
        """Where ``instance`` (disk and node already set) reads its boot working set from."""

    @abc.abstractmethod
    def checkpoint_instance(self, instance: DeployedInstance, tag: str = "") -> Generator:
        """Simulation process: snapshot one instance; returns a CheckpointRecord."""

    @abc.abstractmethod
    def restart_instance(
        self, instance: DeployedInstance, record: CheckpointRecord, target_node: str
    ) -> Generator:
        """Simulation process: re-deploy one instance from its snapshot on ``target_node``."""

    @abc.abstractmethod
    def storage_used_bytes(self) -> int:
        """Persistent storage currently consumed by base images + snapshots."""

    # -- deployment ----------------------------------------------------------------------------

    def deploy(self, count: int, processes_per_instance: int = 1) -> Generator:
        """Simulation process: deploy ``count`` instances from the base image.

        The count is validated eagerly, before any base-image bootstrap side
        effect.
        """
        if count <= 0:
            raise ValueError(
                f"cannot deploy {count} instances: the instance count must be positive"
            )
        return self._deploy(count, processes_per_instance)

    def _deploy(self, count: int, processes_per_instance: int) -> Generator:
        yield from self.ensure_base_image()
        boots = []
        for i, node_name in enumerate(self._place_instances(count)):
            instance_id = self._instance_id(i)
            vm = VMInstance(instance_id, self.cloud.spec.vm)
            vm.host = node_name
            instance = DeployedInstance(instance_id, vm, self._new_disk(instance_id, node_name))
            self.instances.append(instance)
            boots.append(self.cloud.process(
                self._first_boot(instance, processes_per_instance),
                name=f"deploy:{instance_id}",
            ))
        yield self.cloud.env.all_of(boots)
        return list(self.instances)

    def _first_boot(self, instance: DeployedInstance, processes_per_instance: int) -> Generator:
        yield from self._boot(instance)
        noise = write_boot_noise(
            instance.vm.filesystem, self.cloud.spec.checkpoint, instance.instance_id
        )
        yield self.cloud.node(instance.node_name).disk.write(
            noise, label=f"boot-noise:{instance.instance_id}"
        )
        for p in range(processes_per_instance):
            instance.vm.spawn_process(f"rank-{instance.instance_id}-{p}", next(self.cloud.pids))
        return instance

    def _boot(self, instance: DeployedInstance) -> Generator:
        """Simulation process: boot ``instance`` from its disk on its node."""
        yield from self.hypervisors.get(instance.node_name).boot(
            instance.vm, instance.backend,
            image_reader=self._image_reader(instance),
            boot_read_bytes=self.boot_read_bytes,
        )

    # -- generic orchestration -----------------------------------------------------------------

    def instance_by_id(self, instance_id: str) -> DeployedInstance:
        for instance in self.instances:
            if instance.instance_id == instance_id:
                return instance
        raise CheckpointError(f"unknown instance {instance_id}")

    def checkpoint_all(
        self, tag: str = "", instances: Optional[List[DeployedInstance]] = None
    ) -> Generator:
        """Simulation process: take a global checkpoint of all (or some) instances.

        Per-instance snapshots proceed concurrently; the global checkpoint
        completes when the slowest instance has persisted its snapshot, which
        is exactly the completion time the paper's Figures 2, 5a and 6 report.
        """
        targets = instances if instances is not None else self.instances
        if not targets:
            raise CheckpointError("no deployed instance to checkpoint")
        self._checkpoint_index += 1
        index = self._checkpoint_index
        started = self.cloud.now
        procs = [
            self.cloud.process(
                self.checkpoint_instance(inst, tag=tag or f"ckpt-{index}"),
                name=f"ckpt:{inst.instance_id}",
            )
            for inst in targets
        ]
        results = yield from self.await_all(procs)
        checkpoint = GlobalCheckpoint(index=index, started_at=started, finished_at=self.cloud.now)
        for proc in procs:
            record: CheckpointRecord = results[proc]
            checkpoint.records[record.instance_id] = record
        self.checkpoints.append(checkpoint)
        return checkpoint

    def kill_all(self) -> None:
        """Terminate every instance (simulating the loss of all VM state)."""
        for instance in self.instances:
            instance.vm.terminate()
        self.cloud.release_owned(self)

    def restart_targets(self) -> Dict[str, str]:
        """Choose a new (different) host for every instance.

        The paper re-deploys each instance on a different compute node than
        the one it originally ran on, to rule out caching effects.  Nodes
        reserved by another deployment sharing the cloud are never eligible.
        """
        taken = set(self.cloud.reserved_by_others(self))
        live = [n.name for n in self.cloud.live_compute_nodes() if n.name not in taken]
        if not live:
            raise RestartError("no live compute node available for restart")
        mapping: Dict[str, str] = {}
        for i, instance in enumerate(self.instances):
            candidates = [n for n in live if n != instance.node_name] or live
            mapping[instance.instance_id] = candidates[(i + 1) % len(candidates)]
        return mapping

    def restart_all(self, checkpoint: GlobalCheckpoint) -> Generator:
        """Simulation process: kill everything and restart from ``checkpoint``,
        which must hold a snapshot of every instance (``RestartError``, with
        every instance left running, if it does not).

        Completion time spans from the beginning of re-deployment until every
        instance has rebooted (or resumed) and restored its process state --
        the quantity reported by Figure 3.
        """
        if not checkpoint.records:
            raise ValueError(
                f"cannot restart from checkpoint {checkpoint.index}: it records no "
                "instance snapshots (was it taken before any instance was deployed?)"
            )
        for instance in self.instances:
            if instance.instance_id not in checkpoint.records:
                raise RestartError(
                    f"checkpoint {checkpoint.index} has no snapshot of {instance.instance_id}"
                )
        self.kill_all()
        mapping = self.restart_targets()
        self.cloud.claim_nodes(sorted(set(mapping.values())), owner=self)
        started = self.cloud.now
        procs = []
        for instance in self.instances:
            record = checkpoint.records[instance.instance_id]
            target = mapping[instance.instance_id]
            procs.append(self.cloud.process(
                self.restart_instance(instance, record, target),
                name=f"restart:{instance.instance_id}",
            ))
        results = yield from self.await_all(procs)
        report = RestartReport(started_at=started, finished_at=self.cloud.now)
        for proc in procs:
            restored = results[proc] or 0
            report.bytes_restored += int(restored)
        report.instances = [i.instance_id for i in self.instances]
        return report

    def _restore_paths(self, instance: DeployedInstance) -> List[str]:
        """The files a restart must read back to restore process state."""
        return list(instance.vm.filesystem.listdir("/ckpt")) if instance.vm.fs is not None else []

    def _reboot_and_read_back(
        self,
        instance: DeployedInstance,
        disk: BlockDevice,
        target_node: str,
        record: CheckpointRecord,
    ) -> Generator:
        """Simulation process: reboot ``instance`` on ``target_node`` over ``disk``
        (a stored snapshot made usable there) and read its checkpoint files back.

        Returns the bytes read; which storage they were faulted in from, and
        at what cost, is the strategy's to charge.
        """
        instance.backend = disk
        instance.vm.host = target_node
        yield from self._boot(instance)
        restored = 0
        for path in record.restore_paths:
            restored += instance.vm.filesystem.read_file(path).size
        return restored

    # -- live migration: the part every migrating backend shares ---------------------------------

    def _begin_migration(
        self, instance: DeployedInstance, target_node: str, mode: str, supported: Sequence[str]
    ) -> str:
        """Check that ``instance`` can move to ``target_node`` in ``mode`` and claim
        the target; returns the source node."""
        if mode not in supported:
            raise MigrationError(
                f"{self.name} does not support migration mode {mode!r} "
                f"(supported: {', '.join(supported)})"
            )
        if not instance.vm.is_running:
            raise MigrationError(
                f"cannot migrate {instance.instance_id}: the instance is not running"
            )
        source_node = instance.node_name
        if target_node == source_node:
            raise MigrationError(
                f"cannot migrate {instance.instance_id} onto its own host {source_node}"
            )
        self.cloud.node(target_node).check_alive()
        self.cloud.claim_nodes([target_node], owner=self)
        return source_node

    def _flush_suspended_guest(self, instance: DeployedInstance) -> Generator:
        """Simulation process: flush the page cache of a suspended guest.

        :meth:`guest_sync` without the system call's overhead: the frozen
        guest runs nothing, its dirty pages are written out for it.
        """
        synced = instance.vm.filesystem.sync()
        if synced > 0:
            yield self.cloud.node(instance.node_name).disk.write(
                synced, label=f"migrate-flush:{instance.instance_id}"
            )

    def _hand_over(
        self, instance: DeployedInstance, disk: BlockDevice, target_node: str
    ) -> Generator:
        """Simulation process: move the suspended ``instance`` off its host and
        resume it on ``target_node`` over ``disk``, without a reboot."""
        instance.backend = disk
        instance.vm.host = target_node
        yield from self.hypervisors.get(target_node).migrate_in(instance.vm, disk)

    # -- common helpers ---------------------------------------------------------------------------

    def await_all(self, procs) -> Generator:
        """Simulation process: wait for all ``procs``; on failure, interrupt
        the survivors before propagating.

        Without the interrupt, a fail-stop error aborting one per-instance
        snapshot/restart would leave its siblings running in the background
        -- and a later rollback's fresh boot could then race against a stale
        resume of the same VM.  Fault-free runs never take this path.
        """
        try:
            results = yield self.cloud.env.all_of(procs)
        except BaseException:
            for proc in procs:
                proc.interrupt("global phase aborted")  # no-op when finished
            raise
        return results

    def _instance_id(self, index: int) -> str:
        return f"{self.instance_prefix}-{index:03d}"

    def _place_instances(self, count: int) -> List[str]:
        taken = set(self.cloud.reserved_by_others(self))
        available = [n for n in self.cloud.live_compute_nodes() if n.name not in taken]
        if count > len(available):
            raise CheckpointError(
                f"cannot deploy {count} instances on {len(available)} available compute "
                "nodes (one instance per node, as in the paper)"
            )
        return self.cloud.reserve_nodes(count, owner=self)

    def guest_sync(self, instance: DeployedInstance) -> Generator:
        """Simulation process: flush the guest page cache (the ``sync`` system call).

        The flushed bytes land on the virtual disk, i.e. on the node's local
        disk (through the mirroring module or the local qcow2 image), so the
        cost is a local disk write plus the fixed sync overhead.
        """
        fs = instance.filesystem
        synced = fs.sync()
        spec = self.cloud.spec.checkpoint
        yield self.cloud.env.timeout(
            self.cloud.jittered(spec.sync_overhead, ("sync", instance.instance_id))
        )
        if synced > 0:
            yield self.cloud.node(instance.node_name).disk.write(
                synced, label=f"guest-sync:{instance.instance_id}"
            )
        return synced

    def guest_write_and_sync(
        self, instance: DeployedInstance, path: str, data: ByteSource, append: bool = False
    ) -> Generator:
        """Simulation process: write a guest file, ``sync``, charge the local I/O.

        This is "stage 1" of the two-stage checkpoint: getting process state
        into the guest file system.
        """
        fs = instance.filesystem
        fs.write_file(path, data, append=append)
        synced = yield from self.guest_sync(instance)
        return synced

    def guest_read(self, instance: DeployedInstance, path: str) -> Generator:
        """Simulation process: read a guest file, charging local disk time.

        Remote fetches triggered by the read (lazy transfer of snapshot
        content) are charged separately by the strategy's restart path.
        """
        fs = instance.filesystem
        data = fs.read_file(path)
        yield self.cloud.node(instance.node_name).disk.read(
            data.size, label=f"guest-read:{instance.instance_id}"
        )
        return data
