"""Cluster interconnect model.

Every node owns a full-duplex NIC (separate transmit and receive channels of
``nic_bandwidth`` each) and all node-to-node traffic additionally crosses a
shared switch fabric.  Bulk transfers are fluid flows subject to max-min fair
sharing (see :mod:`repro.sim.bandwidth`); small control messages pay latency
and per-message software overhead but negligible bandwidth.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.sim.bandwidth import BandwidthSystem, FairShareChannel
from repro.sim.core import Environment, Event
from repro.util.config import NetworkSpec, SolverConfig
from repro.util.errors import FailureInjected, SimulationError

#: bytes of a control message on the wire
MESSAGE_BYTES = 1024


class Network:
    """The switch fabric plus one NIC pair per attached node."""

    def __init__(
        self, env: Environment, spec: NetworkSpec, solver: Optional[SolverConfig] = None
    ):
        spec.validate()
        self.env = env
        self.spec = spec
        self.bandwidth = BandwidthSystem(env, config=solver)
        self.switch = self.bandwidth.channel(spec.switch_bandwidth, "switch")
        self._nic_tx: Dict[str, FairShareChannel] = {}
        self._nic_rx: Dict[str, FairShareChannel] = {}
        self._down: set[str] = set()

    # -- topology -----------------------------------------------------------------

    def attach(self, node_name: str) -> None:
        if node_name in self._nic_tx:
            raise SimulationError(f"node {node_name} already attached to the network")
        self._nic_tx[node_name] = self.bandwidth.channel(
            self.spec.nic_bandwidth, f"{node_name}.tx"
        )
        self._nic_rx[node_name] = self.bandwidth.channel(
            self.spec.nic_bandwidth, f"{node_name}.rx"
        )

    def nic_tx(self, node_name: str) -> FairShareChannel:
        return self._require(node_name, self._nic_tx)

    def nic_rx(self, node_name: str) -> FairShareChannel:
        return self._require(node_name, self._nic_rx)

    def _require(self, node_name: str, table: Dict[str, FairShareChannel]) -> FairShareChannel:
        try:
            return table[node_name]
        except KeyError:
            raise SimulationError(f"node {node_name} is not attached to the network") from None

    def node_down(self, node_name: str) -> None:
        """Mark a node's NIC as failed and abort all flows crossing it."""
        self._down.add(node_name)
        error = FailureInjected(f"NIC of {node_name} failed", node=node_name)
        for table in (self._nic_tx, self._nic_rx):
            channel = table.get(node_name)
            if channel is not None:
                self.bandwidth.fail_channel(channel, error)

    def _check_up(self, *nodes: str) -> None:
        for node in nodes:
            if node in self._down:
                raise FailureInjected(f"node {node} is down", node=node)

    # -- traffic ---------------------------------------------------------------------

    def path_channels(self, src: str, dst: str) -> List[FairShareChannel]:
        """Channels a ``src -> dst`` bulk transfer crosses."""
        if src == dst:
            return []
        return [self.nic_tx(src), self.switch, self.nic_rx(dst)]

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        label: str = "",
        extra_channels: Iterable[FairShareChannel] = (),
    ) -> Event:
        """Bulk transfer of ``nbytes`` from ``src`` to ``dst``.

        ``extra_channels`` lets callers add endpoint constraints such as the
        destination node's disk.
        """
        self._check_up(src, dst)
        channels = self.path_channels(src, dst) + list(extra_channels)
        latency = self.spec.message_overhead if src == dst else (
            self.spec.latency + self.spec.message_overhead
        )
        return self.bandwidth.transfer(
            nbytes, channels, latency=latency, label=label or f"{src}->{dst}"
        )

    def message(self, src: str, dst: str, label: str = "") -> Event:
        """A small control message (RPC request, marker, notification) of
        :data:`MESSAGE_BYTES`."""
        self._check_up(src, dst)
        if src == dst:
            return self.env.timeout(self.spec.message_overhead)
        channels = self.path_channels(src, dst)
        return self.bandwidth.transfer(
            MESSAGE_BYTES, channels,
            latency=self.spec.latency + self.spec.message_overhead,
            label=label or f"msg:{src}->{dst}",
        )
