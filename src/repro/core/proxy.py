"""The checkpointing proxy.

One proxy runs on every compute node.  It accepts checkpoint requests only
from VM instances hosted on the same node (security + scalability), and on
each request it: authenticates the caller, suspends the instance, performs
``CLONE`` (first time) and ``COMMIT`` through the local mirroring module, and
resumes the instance regardless of the outcome, notifying the guest of the
result.  The guest-to-proxy protocol is a simple REST round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.cluster.hypervisor import Hypervisor
from repro.core.mirroring import MirroringModule
from repro.guest.vm import VMInstance
from repro.util.errors import CheckpointError


@dataclass
class SnapshotReply:
    """What the proxy returns to the guest after a checkpoint request."""

    ok: bool
    instance_id: str
    checkpoint_blob_id: Optional[int] = None
    snapshot_version: Optional[int] = None
    snapshot_bytes: int = 0
    error: str = ""


class CheckpointProxy:
    """Per-node service handling guest checkpoint requests.

    Its timings are its hypervisor's cloud's ``spec.checkpoint``.
    """

    def __init__(self, hypervisor: Hypervisor):
        self.hypervisor = hypervisor
        self.node = hypervisor.node
        self.spec = hypervisor.cloud.spec.checkpoint

    def authenticate(self, vm: VMInstance) -> None:
        """Only instances hosted on this node may use this proxy."""
        if vm.host != self.node.name:
            raise CheckpointError(
                f"proxy on {self.node.name} refuses instance {vm.instance_id} "
                f"hosted on {vm.host}"
            )

    def handle_request(
        self, vm: VMInstance, mirroring: MirroringModule, tag: str = ""
    ) -> Generator:
        """Simulation process: serve one checkpoint request.

        Implements the four proxy steps of Section 3.3: suspend, CLONE if
        necessary, COMMIT the local changes, resume.  The instance is resumed
        even if the snapshot failed; the reply carries the outcome.
        """
        self.authenticate(vm)
        env = self.hypervisor.env
        # REST round trip from the guest to the proxy (same node).
        yield env.timeout(self.spec.proxy_roundtrip)
        with env.phase("vm-suspend", vm.instance_id):
            yield from self.hypervisor.suspend(vm)
        with env.phase("vdisk-snapshot", vm.instance_id) as phase:
            try:
                blob_id = yield from mirroring.clone()
                result = yield from mirroring.commit(tag=tag)
                reply = SnapshotReply(
                    ok=True,
                    instance_id=vm.instance_id,
                    checkpoint_blob_id=blob_id,
                    snapshot_version=result.version,
                    snapshot_bytes=result.bytes_written,
                )
            except Exception as exc:  # resume the VM no matter what
                reply = SnapshotReply(ok=False, instance_id=vm.instance_id, error=str(exc))
            phase.note(bytes=reply.snapshot_bytes, ok=reply.ok)
        with env.phase("vm-resume", vm.instance_id):
            yield from self.hypervisor.resume(vm)
        if not reply.ok and reply.error:
            raise CheckpointError(
                f"checkpoint of {vm.instance_id} failed: {reply.error}"
            )
        return reply
