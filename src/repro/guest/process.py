"""Application processes inside the guest.

A :class:`GuestProcess` owns named memory segments (its heap allocations, the
data buffers of the benchmark applications, ...) and a small register file.
Application-level checkpointing serialises only the segments the application
chooses; BLCR (:mod:`repro.guest.blcr`) indiscriminately dumps everything the
process has allocated -- reproducing the size gap the paper measures between
the two techniques (Table 1).
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.util.bytesource import ByteSource, LiteralBytes
from repro.util.errors import ProcessError

class ProcessState(enum.Enum):
    RUNNING = "running"
    STOPPED = "stopped"
    DEAD = "dead"


class GuestProcess:
    """A process running inside a VM instance.

    ``pid`` comes from the pid namespace of the cloud the instance runs in
    (:attr:`repro.cluster.cloud.Cloud.pids`), or from a BLCR context file
    when a dump is restored.
    """

    def __init__(self, name: str, pid: int):
        self.name = name
        self.pid = pid
        self.state = ProcessState.RUNNING
        #: named memory segments (data buffers, heaps, ...)
        self._segments: Dict[str, ByteSource] = {}
        #: register file / program counters (checkpointed by BLCR)
        self.registers: Dict[str, int] = {"pc": 0, "sp": 0}
        #: bookkeeping used by the applications
        self.iteration = 0

    # -- memory management -----------------------------------------------------------

    def allocate(self, segment: str, data: ByteSource | bytes) -> None:
        """Allocate (or replace) a named memory segment."""
        self._require_alive()
        if isinstance(data, (bytes, bytearray)):
            data = LiteralBytes(bytes(data))
        self._segments[segment] = data

    @property
    def segments(self) -> Dict[str, ByteSource]:
        return dict(self._segments)

    @property
    def allocated_bytes(self) -> int:
        """Total memory allocated by the process."""
        return sum(s.size for s in self._segments.values())

    # -- lifecycle --------------------------------------------------------------------

    def _require_alive(self) -> None:
        if self.state is ProcessState.DEAD:
            raise ProcessError(f"process {self.pid} ({self.name}) is dead")

    def stop(self) -> None:
        self._require_alive()
        self.state = ProcessState.STOPPED

    def resume(self) -> None:
        if self.state is ProcessState.DEAD:
            raise ProcessError(f"cannot resume dead process {self.pid}")
        self.state = ProcessState.RUNNING

    def kill(self) -> None:
        self.state = ProcessState.DEAD
        self._segments.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<GuestProcess {self.name} pid={self.pid} state={self.state.value} "
            f"mem={self.allocated_bytes}B>"
        )
