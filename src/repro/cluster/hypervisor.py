"""A KVM-like hypervisor per compute node.

The hypervisor drives VM lifecycle transitions and charges their cost:

* ``define`` + ``boot``: instantiate the guest, read the *hot* part of the
  disk image (kernel, init scripts, libraries) through whatever image access
  path the deployment strategy provides, then pay the guest-OS boot time;
* ``suspend`` / ``resume``: the short freeze around a disk snapshot;
* ``savevm``: dump the complete VM state (RAM + devices) into the qcow2
  image's internal snapshot area (used by the ``qcow2-full`` baseline).

Timing constants come from :class:`repro.util.config.VMSpec`; data volumes
come from the functional layer (actual guest state), never from constants.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.cluster.cloud import Cloud
from repro.guest.filesystem import GuestFileSystem
from repro.guest.vm import VMInstance
from repro.sim.core import Event
from repro.util.errors import GuestError
from repro.vdisk.blockdev import BlockDevice
from repro.vdisk.qcow2 import QcowImage

#: bytes of the base image the guest OS actually touches while booting
#: (kernel, initrd, init scripts, shared libraries).  The paper's lazy
#: transfer argument is precisely that this is a small fraction of the 2 GB
#: image; ~60 MB matches a minimal headless Debian Sid boot footprint.
BOOT_READ_BYTES = 60 * 10**6

#: a reader callback charges the time to read ``nbytes`` of image content and
#: returns an event; the strategy decides where those bytes come from
#: (BlobSeer with local caching, PVFS)
ImageReader = Callable[[float, str], Event]


class HypervisorCache:
    """One lazily created :class:`Hypervisor` per compute node.

    Every deployment strategy needs "the hypervisor of node X" in its boot,
    snapshot and restart paths; historically BlobCR and the qcow2 baselines
    each kept a private ``_hypervisors`` dict with identical construction
    logic.  This is the single shared helper: the
    :class:`~repro.core.strategy.Deployment` base class owns one instance
    and the :mod:`repro.api` session facade exposes it.
    """

    def __init__(self, cloud: Cloud):
        self._cloud = cloud
        self._hypervisors: dict[str, Hypervisor] = {}

    def get(self, node_name: str) -> Hypervisor:
        """The node's hypervisor, created on first use."""
        hypervisor = self._hypervisors.get(node_name)
        if hypervisor is None:
            hypervisor = Hypervisor(self._cloud, node_name)
            self._hypervisors[node_name] = hypervisor
        return hypervisor

    def __len__(self) -> int:
        return len(self._hypervisors)

    def __contains__(self, node_name: str) -> bool:
        return node_name in self._hypervisors


class Hypervisor:
    """Boot/suspend/resume/savevm for the VMs of one compute node.

    Its timings are its cloud's ``spec.vm``, jittered by the cloud.
    """

    def __init__(self, cloud: Cloud, node_name: str):
        self.cloud = cloud
        self.env = cloud.env
        self.node = cloud.node(node_name)
        self.vm_spec = cloud.spec.vm

    # -- lifecycle ---------------------------------------------------------------------------

    def boot(self, vm: VMInstance, disk: BlockDevice, image_reader: ImageReader) -> Generator:
        """Simulation process: define and boot ``vm`` on this node.

        ``image_reader`` charges the time to fetch the boot-time working set
        of the image, :data:`BOOT_READ_BYTES`.  The guest file system found
        on the disk is mounted.
        """
        self.node.check_alive()
        vm.attach_disk(disk)
        vm.mark_booting()
        yield from self._adopt(vm)
        yield image_reader(BOOT_READ_BYTES, f"boot:{vm.instance_id}")
        yield self._pause(self.vm_spec.boot_time, "boot", vm)
        self.node.check_alive()
        vm.mark_running(GuestFileSystem.mount(disk))
        return vm

    def suspend(self, vm: VMInstance) -> Generator:
        """Simulation process: freeze the VM (around a disk snapshot)."""
        self._check_hosted(vm)
        vm.suspend()
        yield self._pause(self.vm_spec.suspend_time, "suspend", vm)

    def resume(self, vm: VMInstance) -> Generator:
        self._check_hosted(vm)
        yield self._pause(self.vm_spec.resume_time, "resume", vm)
        vm.resume()

    def resume_from_snapshot(self, vm: VMInstance, disk: BlockDevice) -> Generator:
        """Simulation process: resume a VM directly from a full snapshot.

        Used by ``qcow2-full`` restarts: the guest is *not* rebooted, but its
        complete RAM/device state must have been read back by the caller.
        """
        self.node.check_alive()
        vm.attach_disk(disk)
        vm.mark_booting()
        yield from self._adopt(vm)
        yield self._pause(self.vm_spec.resume_time, "loadvm", vm)
        self.node.check_alive()
        vm.mark_running(GuestFileSystem.mount(disk))
        return vm

    def migrate_in(self, vm: VMInstance, disk: BlockDevice) -> Generator:
        """Simulation process: adopt a suspended VM migrated from another node.

        The guest is *not* rebooted -- its processes keep their pids and
        memory (the caller has already shipped the runtime state); only the
        virtual disk is re-attached on this node.  Charges the define plus a
        resume (loadvm-style) latency, then resumes the guest.
        """
        self.node.check_alive()
        vm.relocate(disk, GuestFileSystem.mount(disk))
        yield from self._adopt(vm)
        yield self._pause(self.vm_spec.resume_time, "loadvm", vm)
        self.node.check_alive()
        vm.resume()
        return vm

    def savevm(self, vm: VMInstance, image: QcowImage, snapshot_name: str) -> Generator:
        """Simulation process: full VM snapshot into the qcow2 image (``savevm``).

        The VM is suspended, its complete runtime state (RAM in use, device
        state) is written into the image on the local disk, and the VM is
        resumed.  Returns the internal snapshot object.
        """
        self._check_hosted(vm)
        vm.suspend()
        yield self._pause(self.vm_spec.suspend_time, "savevm", vm)
        state_bytes = vm.runtime_state_bytes
        with self.env.phase("vm-dump", vm.instance_id, bytes=state_bytes):
            snapshot = image.create_internal_snapshot(snapshot_name, vm_state_size=state_bytes)
            yield self.node.disk.write(state_bytes, label=f"savevm:{vm.instance_id}")
        yield self._pause(self.vm_spec.resume_time, "resume", vm)
        vm.resume()
        return snapshot

    def _adopt(self, vm: VMInstance) -> Generator:
        """Simulation process: this node becomes the host of ``vm`` (whose disk
        the caller has attached) and pays the define latency -- the step a
        boot, a resume from a full snapshot and an incoming migration share."""
        vm.host = self.node.name
        yield self._pause(self.vm_spec.define_time, "define", vm)

    def _pause(self, nominal: float, step: str, vm: VMInstance) -> Event:
        """A timeout of ``nominal`` seconds, jittered by the cloud per ``(step, instance)``."""
        return self.env.timeout(self.cloud.jittered(nominal, (step, vm.instance_id)))

    def _check_hosted(self, vm: VMInstance) -> None:
        self.node.check_alive()
        if vm.host != self.node.name:
            raise GuestError(
                f"instance {vm.instance_id} is hosted on {vm.host}, not {self.node.name}"
            )
