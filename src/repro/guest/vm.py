"""VM instances.

A :class:`VMInstance` ties together the guest-visible pieces: the virtual
block device its hypervisor exposes, the guest file system mounted on it, and
the application processes running inside.  Lifecycle transitions (boot,
suspend, resume, terminate) are *driven* by the hypervisor in
:mod:`repro.cluster.hypervisor`; this class only enforces the state machine
and offers the in-guest operations that checkpoint protocols need.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.guest.filesystem import GuestFileSystem
from repro.guest.process import GuestProcess, ProcessState
from repro.util.config import VMSpec
from repro.util.errors import GuestError
from repro.vdisk.blockdev import BlockDevice


class VMState(enum.Enum):
    DEFINED = "defined"
    BOOTING = "booting"
    RUNNING = "running"
    SUSPENDED = "suspended"
    TERMINATED = "terminated"


class VMInstance:
    """One virtual machine instance."""

    def __init__(self, instance_id: str, spec: VMSpec, disk: Optional[BlockDevice] = None):
        self.instance_id = instance_id
        self.spec = spec
        self.state = VMState.DEFINED
        self.disk = disk
        self.fs: Optional[GuestFileSystem] = None
        self._processes: Dict[int, GuestProcess] = {}
        #: the compute node currently hosting the instance (set by middleware)
        self.host: Optional[str] = None
        #: number of reboots (restart experiments re-deploy and reboot)
        self.boot_count = 0

    # -- lifecycle (invoked by the hypervisor) ------------------------------------------

    def attach_disk(self, disk: BlockDevice) -> None:
        if self.state not in (VMState.DEFINED, VMState.TERMINATED):
            raise GuestError(f"cannot attach a disk to a {self.state.value} instance")
        self.disk = disk

    def mark_booting(self) -> None:
        if self.disk is None:
            raise GuestError("cannot boot an instance without a disk")
        if self.state not in (VMState.DEFINED, VMState.TERMINATED):
            raise GuestError(f"cannot boot a {self.state.value} instance")
        self.state = VMState.BOOTING

    def mark_running(self, fs: GuestFileSystem) -> None:
        if self.state not in (VMState.BOOTING, VMState.SUSPENDED):
            raise GuestError(f"cannot mark a {self.state.value} instance running")
        if self.state is VMState.BOOTING:
            self.boot_count += 1
            self.fs = fs
        self.state = VMState.RUNNING

    def suspend(self) -> None:
        if self.state is not VMState.RUNNING:
            raise GuestError(f"cannot suspend a {self.state.value} instance")
        self.state = VMState.SUSPENDED
        for process in self._processes.values():
            if process.state is ProcessState.RUNNING:
                process.stop()

    def resume(self) -> None:
        if self.state is not VMState.SUSPENDED:
            raise GuestError(f"cannot resume a {self.state.value} instance")
        self.state = VMState.RUNNING
        for process in self._processes.values():
            if process.state is ProcessState.STOPPED:
                process.resume()

    def relocate(self, disk: BlockDevice, fs: GuestFileSystem) -> None:
        """Hand the (suspended) instance over to a new host's virtual disk.

        Live migration moves a *suspended* VM between hypervisors without a
        reboot: its processes survive with their pids and memory, only the
        disk attachment and the mounted file-system view change.  The state
        machine stays in SUSPENDED; the destination hypervisor resumes it.
        """
        if self.state is not VMState.SUSPENDED:
            raise GuestError(f"cannot relocate a {self.state.value} instance")
        self.disk = disk
        self.fs = fs

    def terminate(self) -> None:
        """Kill the instance; its local (non-persistent) state is gone."""
        self.state = VMState.TERMINATED
        for process in self._processes.values():
            process.kill()
        self._processes.clear()
        self.fs = None
        self.disk = None

    @property
    def is_running(self) -> bool:
        return self.state is VMState.RUNNING

    # -- guest operations -----------------------------------------------------------------

    def _require_running(self) -> None:
        if self.state is not VMState.RUNNING:
            raise GuestError(
                f"instance {self.instance_id} is {self.state.value}, not running"
            )

    @property
    def filesystem(self) -> GuestFileSystem:
        if self.fs is None:
            raise GuestError(f"instance {self.instance_id} has no mounted file system")
        return self.fs

    def spawn_process(self, name: str, pid: int) -> GuestProcess:
        self._require_running()
        process = GuestProcess(name, pid)
        self._processes[process.pid] = process
        return process

    @property
    def processes(self) -> Dict[int, GuestProcess]:
        return dict(self._processes)

    # -- state-size accounting -------------------------------------------------------------

    @property
    def process_memory_bytes(self) -> int:
        return sum(p.allocated_bytes for p in self._processes.values())

    @property
    def runtime_state_bytes(self) -> int:
        """Bytes a full VM snapshot (``savevm``) must persist besides the disk.

        This is the guest-OS memory footprint / device state (calibrated from
        Figure 4's measured ~118 MB right after boot) plus everything the
        application processes have allocated.
        """
        return self.spec.savevm_state_bytes + self.process_memory_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<VMInstance {self.instance_id} state={self.state.value} host={self.host} "
            f"procs={len(self._processes)}>"
        )
