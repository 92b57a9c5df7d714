"""Live migration of VM instances through the checkpoint repository.

The paper's thesis -- lazy, incremental transfer of VM state through a
versioned blob store -- makes live migration an almost-free consequence of
the machinery that already exists: dirty tracking gives iterative copy
rounds, CLONE/COMMIT publishes each round as an incremental snapshot, and
the lazy-restore reader serves demand faults.  ``blobcr-migrate`` composes
them into the two classic algorithms:

* **pre-copy**: the disk is shipped in iterative rounds while the guest
  keeps running -- each round COMMITs the blocks dirtied during the previous
  round -- until the dirty set converges below a threshold (or a round cap
  fires); the VM is then suspended once for a short stop-and-copy of the
  residue plus its runtime state, and resumed on the destination without a
  reboot;
* **post-copy**: an immediate switchover (runtime state plus the
  file-system metadata blocks) with the destination mounted at the last
  *durable* snapshot version; every block the guest wrote since stays on
  the source and is faulted in on demand while a background prefetch sweep
  drains the rest -- each block crosses the wire exactly once.

Both modes report a typed :class:`MigrationResult` and define rollback
semantics: if the source dies mid-migration, the instance is restarted on
the destination from the last durable snapshot version (``rolled_back``);
with no durable version yet, the failure propagates like any other
fail-stop crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.cloud import Cloud
from repro.cluster.hypervisor import DEFAULT_BOOT_READ_BYTES
from repro.core.backends import BackendCapabilities, register_backend
from repro.core.blobcr import BlobCRDeployment
from repro.core.mirroring import MirroringModule
from repro.core.repository import CheckpointRepository
from repro.core.strategy import CheckpointRecord, DeployedInstance
from repro.guest.filesystem import METADATA_REGION, GuestFileSystem
from repro.obs.tracer import TRACER
from repro.util.bytesource import ByteSource
from repro.util.errors import FailureInjected, MigrationError
from repro.util.units import MB
from repro.vdisk.raw import RawImage

#: the two live algorithms of ``blobcr-migrate``, plus the monolithic
#: suspend-copy-resume baseline implemented by ``qcow2-full``
MIGRATION_MODES = ("pre-copy", "post-copy", "stop-and-copy")


@dataclass(frozen=True)
class MigrationRound:
    """One iterative pre-copy COMMIT round."""

    #: 1-based round index
    index: int
    #: dirty blocks this round's COMMIT shipped
    dirty_blocks: int
    #: bytes the round actually moved into the repository
    bytes_moved: int
    #: simulated seconds the round took
    duration_s: float


@dataclass(frozen=True)
class MigrationResult:
    """Outcome of migrating one instance (any mode, any backend)."""

    instance_id: str
    #: ``pre-copy`` / ``post-copy`` / ``stop-and-copy``
    mode: str
    source_node: str
    target_node: str
    #: simulated times the migration started / completed
    started_at: float
    finished_at: float
    #: seconds the guest was unavailable (suspend to resume)
    downtime_s: float
    #: the iterative copy rounds, in order
    rounds: Tuple[MigrationRound, ...] = ()
    #: bytes of the final stop-and-copy residue COMMIT (pre-copy), or of the
    #: monolithic image copy (stop-and-copy); 0 for post-copy
    residue_bytes: int = 0
    #: runtime state (RAM + device state) shipped during the switchover;
    #: for post-copy this includes the file-system metadata blocks the
    #: destination must hold before it can mount the guest file system
    state_bytes: int = 0
    #: post-copy blocks served on demand from the source, and their bytes
    remote_faults: int = 0
    remote_fault_bytes: int = 0
    #: post-copy blocks drained by the background prefetch sweep
    prefetched_blocks: int = 0
    prefetched_bytes: int = 0
    #: the source died mid-migration and the instance was restarted from
    #: the last durable snapshot instead of completing the live handover
    rolled_back: bool = False

    @property
    def total_migration_s(self) -> float:
        """End-to-end migration time on the simulated clock."""
        return self.finished_at - self.started_at

    @property
    def round_bytes(self) -> int:
        return sum(r.bytes_moved for r in self.rounds)

    @property
    def total_bytes_moved(self) -> int:
        """Every byte the migration pushed across the fabric."""
        return (
            self.round_bytes
            + self.residue_bytes
            + self.state_bytes
            + self.remote_fault_bytes
            + self.prefetched_bytes
        )


class PostCopyPump:
    """Drains the source-local residue of a post-copy migration.

    Holds the blocks that were dirty on the source at switchover; each
    block leaves through exactly one of three doors -- the switchover
    itself (file-system metadata), a demand fault (the guest at the
    destination touched it) or the background prefetch sweep -- and never
    through two, because serving a block removes it from ``pending``.
    ``served`` logs every (block, channel) pair so the property tests can
    assert the exactly-once discipline.
    """

    def __init__(
        self,
        cloud: Cloud,
        source_node: str,
        target_node: str,
        destination: MirroringModule,
        payloads: Dict[int, ByteSource],
        instance_id: str,
    ):
        self.cloud = cloud
        self.source_node = source_node
        self.target_node = target_node
        self.destination = destination
        self.pending: Dict[int, ByteSource] = dict(sorted(payloads.items()))
        self.instance_id = instance_id
        self.remote_faults = 0
        self.remote_fault_bytes = 0
        self.prefetched_blocks = 0
        self.prefetched_bytes = 0
        self.state_blocks = 0
        self.state_bytes = 0
        #: (block index, "state" | "fault" | "prefetch") in service order
        self.served: List[Tuple[int, str]] = []

    @property
    def drained(self) -> bool:
        return not self.pending

    def _deliver(self, indices: Sequence[int], channel: str) -> Generator:
        """Simulation process: ship pending blocks src -> dst, install them."""
        batch = [i for i in indices if i in self.pending]
        if not batch:
            return 0
        payloads = [self.pending.pop(i) for i in batch]
        nbytes = sum(p.size for p in payloads)
        span = None
        if TRACER.enabled:
            span = TRACER.begin(
                f"postcopy-{channel}", self.instance_id, self.cloud.now,
                args={"blocks": len(batch), "bytes": nbytes},
            )
        try:
            yield self.cloud.remote_read(
                self.source_node, self.target_node, nbytes,
                label=f"postcopy-{channel}:{self.instance_id}",
            )
        except BaseException:
            # The transfer never completed (e.g. the source died): the
            # blocks were not served -- put them back so the rollback
            # accounting stays exact.
            for index, payload in zip(batch, payloads):
                self.pending[index] = payload
            raise
        block_size = self.destination.block_size
        for index, payload in zip(batch, payloads):
            self.destination.write(index * block_size, payload)
            self.served.append((index, channel))
        if channel == "fault":
            self.remote_faults += len(batch)
            self.remote_fault_bytes += nbytes
        elif channel == "state":
            self.state_blocks += len(batch)
            self.state_bytes += nbytes
        else:
            self.prefetched_blocks += len(batch)
            self.prefetched_bytes += nbytes
        if span is not None:
            TRACER.end(span, self.cloud.now)
        return nbytes

    def fault_range(self, offset: int, length: int, channel: str = "fault") -> Generator:
        """Simulation process: demand-fault the blocks of one byte window."""
        if length <= 0:
            return 0
        block_size = self.destination.block_size
        first = offset // block_size
        last = (offset + length - 1) // block_size
        wanted = [i for i in range(first, last + 1) if i in self.pending]
        moved = yield from self._deliver(wanted, channel)
        return moved

    def fault_file(self, fs: GuestFileSystem, path: str) -> Generator:
        """Simulation process: demand-fault every block backing one file."""
        moved = 0
        if fs.exists(path):
            for offset, length in fs.file_extents(path):
                moved += yield from self.fault_range(offset, length)
        return moved

    def prefetch_sweep(self) -> Generator:
        """Simulation process: drain the remainder in contiguous runs."""
        while self.pending:
            indices = sorted(self.pending)
            run = [indices[0]]
            for index in indices[1:]:
                if index != run[-1] + 1:
                    break
                run.append(index)
            yield from self._deliver(run, "prefetch")


@dataclass
class _Migration:
    """One ``migrate_instance`` call in flight (migrations run concurrently)."""

    instance: DeployedInstance
    #: the source-side mirroring module
    mirroring: MirroringModule
    mode: str
    source_node: str
    target_node: str
    started_at: float
    rounds: List[MigrationRound] = field(default_factory=list)
    #: when the guest was suspended, once it is (rollback accounting)
    suspended_at: Optional[float] = None

    def result(self, finished_at: float, downtime_s: float, **measured) -> MigrationResult:
        return MigrationResult(
            instance_id=self.instance.instance_id,
            mode=self.mode,
            source_node=self.source_node,
            target_node=self.target_node,
            started_at=self.started_at,
            finished_at=finished_at,
            downtime_s=downtime_s,
            rounds=tuple(self.rounds),
            **measured,
        )


@register_backend(
    "blobcr-migrate",
    capabilities=BackendCapabilities(incremental=True, dedup_capable=True, live_migration=True),
    description="BlobCR with pre-copy / post-copy live migration over the snapshot store",
)
class BlobCRMigrateDeployment(BlobCRDeployment):
    """BlobCR deployment with live migration between compute nodes."""

    name = "BlobCR-migrate"

    def __init__(
        self,
        cloud: Cloud,
        repository: Optional[CheckpointRepository] = None,
        base_image: Optional[RawImage] = None,
        adaptive_prefetch: bool = True,
        boot_read_bytes: float = DEFAULT_BOOT_READ_BYTES,
        instance_prefix: str = "vm",
        precopy_threshold_bytes: int = 4 * MB,
        precopy_max_rounds: int = 8,
    ):
        super().__init__(
            cloud, repository=repository, base_image=base_image,
            adaptive_prefetch=adaptive_prefetch, boot_read_bytes=boot_read_bytes,
            instance_prefix=instance_prefix,
        )
        if precopy_threshold_bytes < 0:
            raise MigrationError(
                f"pre-copy threshold must be >= 0, got {precopy_threshold_bytes}"
            )
        if precopy_max_rounds < 1:
            raise MigrationError(f"pre-copy round cap must be >= 1, got {precopy_max_rounds}")
        self.precopy_threshold_bytes = precopy_threshold_bytes
        self.precopy_max_rounds = precopy_max_rounds
        #: per-instance post-copy pumps still draining (the demand channel)
        self._postcopy: Dict[str, PostCopyPump] = {}
        #: the most recently drained pump, kept for inspection (the serve log
        #: is how the exactly-once contract is audited)
        self.last_pump: Optional[PostCopyPump] = None

    # -- helpers -----------------------------------------------------------------------------

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

    # -- the migration engine ----------------------------------------------------------------

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
        sweep.  Returns a :class:`MigrationResult`.
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
        span = None
        if TRACER.enabled:
            span = TRACER.begin(
                "migrate-round", instance.instance_id, t0,
                args={"round": index, "dirty_blocks": dirty},
            )
        if dirty:
            commit = yield from mirroring.commit(tag=f"migrate:{instance.instance_id}:{name}")
            moved = commit.bytes_written
        else:
            # An empty COMMIT would publish a pointless empty version; close
            # the epoch bookkeeping without touching the repository.
            mirroring.dirty.close_epoch()
            moved = 0
        if span is not None:
            TRACER.end(span, self.cloud.now, args={"bytes": moved})
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
        span = None
        if TRACER.enabled:
            span = TRACER.begin(
                "migrate-switchover", instance.instance_id, self.cloud.now,
                args={"mode": call.mode},
            )
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
        if span is not None:
            TRACER.end(span, self.cloud.now, args={"downtime_s": downtime})
        return downtime, state_bytes, residue_bytes, pump

    def _migrate_precopy(self, call: _Migration) -> Generator:
        yield from call.mirroring.clone()
        index = 0
        while True:
            index += 1
            round_ = yield from self._run_round(call, index, f"round-{index}")
            call.rounds.append(round_)
            if (
                call.mirroring.dirty_bytes <= self.precopy_threshold_bytes
                or index >= self.precopy_max_rounds
            ):
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
        sweep_span = None
        if TRACER.enabled:
            sweep_span = TRACER.begin(
                "postcopy-sweep", instance.instance_id, self.cloud.now,
                args={"pending_blocks": len(pump.pending)},
            )
        yield from pump.prefetch_sweep()
        if sweep_span is not None:
            TRACER.end(sweep_span, self.cloud.now)
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

    def migrate_all(self, target_nodes: Dict[str, str], mode: str = "pre-copy") -> Generator:
        """Simulation process: migrate several instances concurrently.

        ``target_nodes`` maps instance ids to destination nodes.  A failure
        that cannot be rolled back (no durable round yet) interrupts the
        sibling migrations before propagating, exactly like the checkpoint
        and restart phases do.
        """
        targets = [self.instance_by_id(instance_id) for instance_id in target_nodes]
        if not targets:
            raise MigrationError("no instance selected for migration")
        procs = [
            self.cloud.process(
                self.migrate_instance(inst, target_nodes[inst.instance_id], mode=mode),
                name=f"migrate:{inst.instance_id}",
            )
            for inst in targets
        ]
        results = yield from self.await_all(procs)
        return [results[proc] for proc in procs]

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


def migration_capable(factory: object) -> bool:
    """True when a backend factory actually implements ``migrate_instance``.

    The registry test uses this to keep :class:`BackendCapabilities`
    honest: ``live_migration`` must be advertised exactly by the backends
    whose deployment classes implement the method.
    """
    return callable(getattr(factory, "migrate_instance", None))


__all__ = [
    "MIGRATION_MODES",
    "BlobCRMigrateDeployment",
    "MigrationResult",
    "MigrationRound",
    "PostCopyPump",
    "migration_capable",
]
