"""The synthetic checkpoint benchmark of Section 4.3.

One process per VM instance allocates a data buffer of a configurable size
and fills it with random data.  For an **application-level** checkpoint the
processes synchronise, each dumps its buffer into a file in the guest file
system, and then asks the checkpointing proxy to snapshot the disk.  For a
**process-level** checkpoint the modified MPI library / BLCR does the
dumping instead.  On restart, each process reads the saved file back into
its buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.core.protocol import CoordinatedCheckpoint
from repro.core.strategy import DeployedInstance, Deployment, GlobalCheckpoint
from repro.util.bytesource import ByteSource, SyntheticBytes, content_equal
from repro.util.errors import CheckpointError

#: guest path template of the application-level checkpoint file; one file per
#: checkpoint epoch, with the previous epoch's file removed once the new one
#: is safely written (the usual rotation scheme of application-level CR)
STATE_PATH_TEMPLATE = "/ckpt/app-state-{epoch:04d}.dat"


@dataclass
class SyntheticResult:
    """Timing record of one benchmark phase."""

    phase: str
    duration: float
    bytes_involved: int


class SyntheticBenchmark:
    """Driver of the synthetic benchmark over any deployment strategy."""

    def __init__(self, deployment: Deployment, buffer_bytes: int, seed: object = "synthetic"):
        if buffer_bytes <= 0:
            raise CheckpointError(f"buffer size must be positive, got {buffer_bytes}")
        self.deployment = deployment
        self.cloud = deployment.cloud
        self.buffer_bytes = buffer_bytes
        self.seed = seed
        self.results: List[SyntheticResult] = []
        self._fill_epoch = 0

    # -- workload ------------------------------------------------------------------------------

    def _buffer_for(self, instance_id: str, epoch: Optional[int] = None) -> ByteSource:
        epoch = self._fill_epoch if epoch is None else epoch
        return SyntheticBytes((self.seed, instance_id, epoch), self.buffer_bytes)

    def fill_buffers(self) -> None:
        """Fill (or refill) every process's data buffer with random data."""
        self._fill_epoch += 1
        for instance in self.deployment.instances:
            for process in instance.vm.processes.values():
                process.allocate("data_buffer", self._buffer_for(instance.instance_id))
                process.iteration = self._fill_epoch

    # -- application-level checkpointing --------------------------------------------------------

    def _dump_instance(self, instance: DeployedInstance) -> Generator:
        data = self._buffer_for(instance.instance_id)
        path = STATE_PATH_TEMPLATE.format(epoch=self._fill_epoch)
        previous = STATE_PATH_TEMPLATE.format(epoch=self._fill_epoch - 1)
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
        started = self.cloud.now
        dumps = [
            self.cloud.process(self._dump_instance(inst), name=f"dump:{inst.instance_id}")
            for inst in self.deployment.instances
        ]
        # A failed dump (fail-stop crash mid-checkpoint) must not leave
        # sibling dumps running into a subsequent rollback.
        yield from self.deployment.await_all(dumps)
        checkpoint = yield from self.deployment.checkpoint_all(tag="app")
        self.results.append(SyntheticResult(
            phase="checkpoint-app", duration=self.cloud.now - started,
            bytes_involved=checkpoint.total_snapshot_bytes,
        ))
        return checkpoint

    # -- process-level checkpointing ---------------------------------------------------------------

    def checkpoint_process_level(self) -> Generator:
        """Simulation process: the global process-level (BLCR) checkpoint."""
        started = self.cloud.now
        protocol = CoordinatedCheckpoint(self.deployment)
        checkpoint = yield from protocol.global_checkpoint(tag="blcr")
        self.results.append(SyntheticResult(
            phase="checkpoint-blcr", duration=self.cloud.now - started,
            bytes_involved=checkpoint.total_snapshot_bytes,
        ))
        return checkpoint

    # -- restart -----------------------------------------------------------------------------------

    def restart(
        self, checkpoint: GlobalCheckpoint, target_nodes: Optional[Dict[str, str]] = None
    ) -> Generator:
        """Simulation process: kill everything, restart, read the state back."""
        started = self.cloud.now
        report = yield from self.deployment.restart_all(checkpoint, target_nodes=target_nodes)
        self.results.append(SyntheticResult(
            phase="restart", duration=self.cloud.now - started,
            bytes_involved=report.bytes_restored,
        ))
        return report

    def verify_restored_state(self, sample_bytes: int = 65536, epoch: Optional[int] = None) -> bool:
        """Check (functionally) that restored state files match the buffers.

        ``epoch`` selects which fill epoch to verify against; the default is
        the most recent one.  After a rollback the restored guest holds the
        state of the last durable checkpoint, so recovery paths verify
        against that checkpoint's epoch rather than the fills that were lost
        with the crash.
        """
        epoch = self._fill_epoch if epoch is None else epoch
        path = STATE_PATH_TEMPLATE.format(epoch=epoch)
        for instance in self.deployment.instances:
            if instance.vm.fs is None or not instance.vm.filesystem.exists(path):
                continue
            data = instance.vm.filesystem.read_file(path)
            expected = self._buffer_for(instance.instance_id, epoch=epoch)
            if data.size != expected.size:
                return False
            window = min(sample_bytes, data.size)
            tail = data.size - window
            if not (
                content_equal(data.slice(0, window), expected.slice(0, window))
                and content_equal(data.slice(tail, window), expected.slice(tail, window))
            ):
                return False
        return True
