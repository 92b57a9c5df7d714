"""The guest environment: what runs *inside* a VM instance.

BlobCR's central observation is that the state worth checkpointing is (a) the
state of the application processes and (b) the state of the guest file
system, both of which end up on the virtual disk.  This package provides:

* :class:`~repro.guest.filesystem.GuestFileSystem` -- a small extent-based
  file system with a page cache and an explicit ``sync``, persisted entirely
  on a :class:`~repro.vdisk.blockdev.BlockDevice` so that reverting the disk
  reverts the file system (the paper's "roll back I/O" property),
* :class:`~repro.guest.process.GuestProcess` -- an application process with
  memory segments and registers,
* :mod:`~repro.guest.blcr` -- a BLCR-style process-level checkpointer that
  dumps a process image to a file,
* :class:`~repro.guest.vm.VMInstance` -- the VM itself (disk, mounted file
  system, processes, lifecycle state),
* :mod:`~repro.guest.osnoise` -- background writes the guest OS performs
  (boot-time configuration, log files), which give disk snapshots their fixed
  overhead in Figure 4.
"""

from repro.guest.filesystem import GuestFileSystem
from repro.guest.process import GuestProcess, ProcessState
from repro.guest.blcr import blcr_dump, blcr_restore
from repro.guest.vm import VMInstance, VMState
from repro.guest.osnoise import write_boot_noise

__all__ = [
    "GuestFileSystem",
    "GuestProcess",
    "ProcessState",
    "blcr_dump",
    "blcr_restore",
    "VMInstance",
    "VMState",
    "write_boot_noise",
]
