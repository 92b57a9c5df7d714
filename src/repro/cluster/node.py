"""Compute nodes and their local disks."""

from __future__ import annotations

from typing import Callable, List

from repro.sim.bandwidth import FairShareChannel
from repro.sim.core import Environment, Event
from repro.cluster.network import Network
from repro.util.config import DiskSpec
from repro.util.errors import FailureInjected


class LocalDisk:
    """Timing model of a node-local disk.

    Reads and writes are fluid flows through a single shared channel (the
    disk head), preceded by a positioning latency.  What the disk holds is
    accounted by the storage service on it: the node's data provider is
    sized from ``DiskSpec.capacity``.
    """

    def __init__(self, env: Environment, network: Network, spec: DiskSpec, name: str):
        spec.validate()
        self.env = env
        self.spec = spec
        self.name = name
        self.channel: FairShareChannel = network.bandwidth.channel(
            spec.bandwidth, f"{name}.disk"
        )
        self._network = network
        self.alive = True

    # -- I/O ----------------------------------------------------------------------------

    def _io(self, nbytes: float, label: str) -> Event:
        if not self.alive:
            raise FailureInjected(f"disk {self.name} is dead", node=self.name)
        return self._network.bandwidth.transfer(
            nbytes, [self.channel], latency=self.spec.latency, label=label
        )

    def read(self, nbytes: float, label: str = "") -> Event:
        return self._io(nbytes, label or f"{self.name}.read")

    def write(self, nbytes: float, label: str = "") -> Event:
        return self._io(nbytes, label or f"{self.name}.write")

    def fail(self) -> None:
        self.alive = False
        self._network.bandwidth.fail_channel(
            self.channel, FailureInjected(f"disk {self.name} failed", node=self.name)
        )


class ComputeNode:
    """A physical machine of the IaaS cloud.

    Hosts VM instances, a data provider of the checkpoint repository, a
    mirroring module and a checkpointing proxy (all placed by the higher
    layers).  Failure follows the fail-stop model: when the node dies, every
    hosted VM and all locally stored data are lost, and every in-flight
    transfer touching the node aborts.
    """

    def __init__(self, env: Environment, network: Network, disk_spec: DiskSpec, name: str):
        self.env = env
        self.name = name
        self.network = network
        network.attach(name)
        self.disk = LocalDisk(env, network, disk_spec, name)
        self.alive = True
        #: callbacks invoked (once) when the node fails
        self._failure_listeners: List[Callable[["ComputeNode"], None]] = []

    # -- failure -------------------------------------------------------------------------------

    def on_failure(self, callback: Callable[["ComputeNode"], None]) -> None:
        self._failure_listeners.append(callback)

    def fail(self) -> None:
        """Fail-stop crash: NIC, disk and everything hosted here is gone."""
        if not self.alive:
            return
        self.alive = False
        self.network.node_down(self.name)
        self.disk.fail()
        for listener in list(self._failure_listeners):
            listener(self)

    def check_alive(self) -> None:
        if not self.alive:
            raise FailureInjected(f"node {self.name} is down", node=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<ComputeNode {self.name} alive={self.alive}>"
