"""The synthetic checkpoint benchmark of Section 4.3.

One process per VM instance allocates a data buffer of a configurable size
and fills it with random data.  For an **application-level** checkpoint the
processes synchronise, each dumps its buffer into a file in the guest file
system, and then asks the checkpointing proxy to snapshot the disk.  For a
**process-level** checkpoint the modified MPI library / BLCR does the
dumping instead.  On restart, each process reads the saved file back into
its buffer.  With a **full** VM snapshot (``qcow2-full``) there is no stage 1
at all: the buffer stays in RAM and ``savevm`` captures it.
"""

from __future__ import annotations

import operator
from typing import Generator, List, Optional

from repro.core.protocol import CoordinatedCheckpoint
from repro.core.strategy import DeployedInstance, Deployment, GlobalCheckpoint
from repro.guest.blcr import blcr_restore
from repro.guest.filesystem import GuestFileSystem
from repro.util.bytesource import ByteSource, SyntheticBytes, content_equal
from repro.util.errors import CheckpointError

#: who performs stage 1 of a checkpoint: the application, BLCR, or nobody
CHECKPOINT_LEVELS = ("app", "blcr", "full")

#: guest path template of the application-level checkpoint file; one file per
#: checkpoint epoch, with the previous epoch's file removed once the new one
#: is safely written (the usual rotation scheme of application-level CR)
STATE_PATH_TEMPLATE = "/ckpt/app-state-{epoch:04d}.dat"


class SyntheticBenchmark:
    """Driver of the synthetic benchmark over any deployment strategy."""

    def __init__(
        self,
        deployment: Deployment,
        buffer_bytes: int,
        seed: object = "synthetic",
        level: str = "app",
    ):
        try:
            buffer_bytes = operator.index(buffer_bytes)
        except TypeError:
            raise CheckpointError(f"buffer size must be an integer, got {buffer_bytes!r}") from None
        if buffer_bytes <= 0:
            raise CheckpointError(f"buffer size must be positive, got {buffer_bytes}")
        if level not in CHECKPOINT_LEVELS:
            raise CheckpointError(
                f"unknown checkpoint level {level!r} (expected one of {CHECKPOINT_LEVELS})"
            )
        self.deployment = deployment
        self.cloud = deployment.cloud
        self.buffer_bytes = buffer_bytes
        self.seed = seed
        #: the level :meth:`checkpoint` takes and :meth:`verify_restored_state` checks
        self.level = level
        #: content epoch of the buffers, advanced by :meth:`fill_buffers`
        self.epoch = 0

    # -- workload ------------------------------------------------------------------------------

    def _buffer_for(self, instance_id: str, epoch: Optional[int] = None) -> ByteSource:
        epoch = self.epoch if epoch is None else epoch
        return SyntheticBytes((self.seed, instance_id, epoch), self.buffer_bytes)

    def fill_buffers(self) -> None:
        """Fill (or refill) every process's data buffer with random data."""
        self.epoch += 1
        for instance in self.deployment.instances:
            for process in instance.vm.processes.values():
                process.allocate("data_buffer", self._buffer_for(instance.instance_id))
                process.iteration = self.epoch

    # -- checkpointing ---------------------------------------------------------------------------

    def checkpoint(self) -> Generator:
        """Simulation process: the global checkpoint at this benchmark's level."""
        if self.level == "app":
            checkpoint = yield from self.checkpoint_app_level()
        elif self.level == "blcr":
            checkpoint = yield from self.checkpoint_process_level()
        else:  # full: the buffer stays in RAM and savevm captures it
            checkpoint = yield from self.deployment.checkpoint_all(tag="full")
        return checkpoint

    def _dump_instance(self, instance: DeployedInstance) -> Generator:
        data = self._buffer_for(instance.instance_id)
        path = STATE_PATH_TEMPLATE.format(epoch=self.epoch)
        previous = STATE_PATH_TEMPLATE.format(epoch=self.epoch - 1)
        fs = instance.vm.filesystem
        if fs.exists(previous):
            fs.delete(previous)
        written = yield from self.deployment.guest_write_and_sync(instance, path, data)
        return written

    def checkpoint_app_level(self) -> Generator:
        """Simulation process: the global application-level checkpoint.

        The processes synchronise to start at the same time, independently
        dump their buffers, and each instance then requests a disk snapshot.
        Returns the :class:`GlobalCheckpoint`.
        """
        dumps = [
            self.cloud.process(self._dump_instance(inst), name=f"dump:{inst.instance_id}")
            for inst in self.deployment.instances
        ]
        # A failed dump (fail-stop crash mid-checkpoint) must not leave
        # sibling dumps running into a subsequent rollback.
        yield from self.deployment.await_all(dumps)
        checkpoint = yield from self.deployment.checkpoint_all(tag="app")
        return checkpoint

    def checkpoint_process_level(self) -> Generator:
        """Simulation process: the global process-level (BLCR) checkpoint."""
        protocol = CoordinatedCheckpoint(self.deployment)
        checkpoint = yield from protocol.global_checkpoint(tag="blcr")
        return checkpoint

    # -- restart -----------------------------------------------------------------------------------

    def restart(self, checkpoint: GlobalCheckpoint) -> Generator:
        """Simulation process: kill everything, restart, read the state back."""
        report = yield from self.deployment.restart_all(checkpoint)
        return report

    def _saved_buffers(self, fs: GuestFileSystem, epoch: int) -> List[ByteSource]:
        """The data buffers this benchmark's level left under ``/ckpt`` at ``epoch``:
        the application's state file, or the ``data_buffer`` segment of every
        BLCR context file."""
        if self.level == "app":
            path = STATE_PATH_TEMPLATE.format(epoch=epoch)
            return [fs.read_file(path)] if fs.exists(path) else []
        return [
            blcr_restore(fs.read_file(path)).segments["data_buffer"]
            for path in fs.listdir("/ckpt")
            if path.startswith("/ckpt/blcr-") and path.endswith(f"-{epoch:04d}.ctx")
        ]

    def verify_restored_state(self, epoch: Optional[int] = None) -> bool:
        """Check (functionally) that what a restart restored matches the buffers.

        ``epoch`` selects which fill epoch to verify against; the default is
        the most recent one.  After a rollback the restored guest holds the
        state of the last durable checkpoint, so recovery paths verify
        against that checkpoint's epoch rather than the fills that were lost
        with the crash.  Every instance with a mounted file system must hold
        its buffer, equal in every byte: a restart that restored nothing does
        not verify.  At level ``full`` there is nothing on disk to verify
        (processes resume from the RAM the snapshot captured).
        """
        if self.level == "full":
            return True
        epoch = self.epoch if epoch is None else epoch
        for instance in self.deployment.instances:
            if instance.vm.fs is None:
                continue
            expected = self._buffer_for(instance.instance_id, epoch=epoch)
            saved = self._saved_buffers(instance.vm.filesystem, epoch)
            if not saved or not all(content_equal(data, expected) for data in saved):
                return False
        return True
