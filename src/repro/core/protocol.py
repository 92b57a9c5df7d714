"""Checkpoint protocols running inside the guest (stage 1).

The two-stage checkpoint of Section 3.1.2 leaves stage 1 -- getting process
state onto the virtual disk -- to the guest.  Two variants are evaluated:

* **application-level**: the application writes its own restart files (the
  synthetic benchmark dumps its data buffer, CM1 dumps its subdomains); it is
  driven directly by :mod:`repro.apps`, which uses
  :meth:`Deployment.guest_write_and_sync`;
* **process-level** (:class:`CoordinatedCheckpoint`): the modified MPICH2
  library drains the communication channels with marker messages, dumps every
  MPI process with BLCR into a context file, calls ``sync`` and only then
  requests the disk snapshot from the checkpointing proxy -- the three
  original steps of the mpich2 protocol plus the two extensions described in
  Section 3.3.
"""

from __future__ import annotations

import math
from typing import Generator

from repro.core.strategy import DeployedInstance, Deployment, GlobalCheckpoint
from repro.guest.blcr import blcr_dump
from repro.util.errors import CheckpointError


class CoordinatedCheckpoint:
    """Process-level coordinated checkpointing (mpich2 + BLCR + BlobCR extensions)."""

    def __init__(self, deployment: Deployment):
        self.deployment = deployment
        self.spec = deployment.cloud.spec.checkpoint
        self.cloud = deployment.cloud

    # -- protocol steps ---------------------------------------------------------------------

    def drain_channels(self, total_processes: int) -> Generator:
        """Simulation process: flush in-transit messages with marker messages.

        Marker propagation is a collective over all processes; its cost grows
        with the process count (a few milliseconds per process plus a
        logarithmic propagation term), which is why the CM1 curves in
        Figure 6 rise faster than the synthetic benchmark's.
        """
        if total_processes < 1:
            raise CheckpointError("cannot drain channels of zero processes")
        rounds = max(1.0, math.log2(total_processes))
        latency = self.cloud.spec.network.latency + self.cloud.spec.network.message_overhead
        duration = (
            self.spec.drain_per_process * total_processes + 2.0 * latency * rounds
        )
        yield self.cloud.env.timeout(self.cloud.jittered(duration, ("drain", total_processes)))
        return duration

    def dump_instance_processes(self, instance: DeployedInstance) -> Generator:
        """Simulation process: BLCR-dump every process of one instance to files.

        Returns the total bytes dumped.  The dump files are written under
        ``/ckpt`` so that restart knows what to read back.
        """
        vm = instance.vm
        fs = vm.filesystem
        total = 0
        for pid, process in sorted(vm.processes.items()):
            yield self.cloud.env.timeout(
                self.cloud.jittered(self.spec.blcr_overhead, ("blcr", instance.instance_id, pid))
            )
            dump = blcr_dump(process)
            epoch = process.iteration
            previous = f"/ckpt/blcr-{pid}-{max(0, epoch - 1):04d}.ctx"
            if fs.exists(previous):
                fs.delete(previous)
            fs.write_file(f"/ckpt/blcr-{pid}-{epoch:04d}.ctx", dump)
            total += dump.size
        # Extension 1 (Section 3.3): sync to flush the page cache before the
        # snapshot is requested.
        yield from self.deployment.guest_sync(instance)
        return total

    def global_checkpoint(self, tag: str = "blcr") -> Generator:
        """Simulation process: coordinated process-level checkpoint of the application."""
        targets = self.deployment.instances
        if not targets:
            raise CheckpointError("no deployed instance to checkpoint")
        total_processes = sum(len(i.vm.processes) for i in targets)
        # Stage 1 runs concurrently on every instance after a common drain.
        yield from self.drain_channels(max(1, total_processes))
        dumps = [
            self.cloud.process(
                self.dump_instance_processes(inst), name=f"blcr-dump:{inst.instance_id}"
            )
            for inst in targets
        ]
        yield from self.deployment.await_all(dumps)
        # Stage 2: disk snapshots through the per-node proxies.
        checkpoint: GlobalCheckpoint = yield from self.deployment.checkpoint_all(tag=tag)
        return checkpoint
