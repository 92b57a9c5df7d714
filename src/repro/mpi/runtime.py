"""Communication cost of an MPI application over the simulated cluster network.

A :class:`MPICommunicator` stands for ``MPI_COMM_WORLD`` of ``size`` ranks
(several ranks per VM instance when VMs are multi-core, as in the CM1
experiment: 4 MPI processes per quad-core VM).  It charges simulated time for
the collectives the applications run -- barriers and nearest-neighbour halo
exchanges -- from the network spec's latency, per-message overhead and NIC
bandwidth; no message payload is modelled.

The communicator also implements the pieces the coordinated checkpoint
protocol relies on: ``quiesce`` (stop communicating, the "marker" step) and
``resume_comm``.
"""

from __future__ import annotations

import math
from typing import Generator

from repro.cluster.cloud import Cloud
from repro.util.errors import MPIError


class MPICommunicator:
    """``MPI_COMM_WORLD`` of ``size`` ranks over the deployed instances."""

    def __init__(self, cloud: Cloud, size: int):
        if size < 1:
            raise MPIError(f"a communicator needs at least one rank, got {size}")
        self.cloud = cloud
        self.size = size
        self._quiesced = False

    @property
    def _latency(self) -> float:
        network = self.cloud.spec.network
        return network.latency + network.message_overhead

    # -- collectives --------------------------------------------------------------------------

    def barrier(self) -> Generator:
        """Simulation process: dissemination barrier across all ranks."""
        rounds = max(1, math.ceil(math.log2(max(2, self.size))))
        yield self.cloud.env.timeout(2 * rounds * self._latency)

    def halo_exchange(self, nbytes_per_neighbour: int, neighbours: int = 4) -> Generator:
        """Simulation process: nearest-neighbour exchange (one stencil iteration).

        Every rank sends/receives ``nbytes_per_neighbour`` with each of its
        ``neighbours``; exchanges proceed concurrently, so the cost is that of
        the per-rank volume over the NIC plus latency, not of the global sum.
        """
        if self._quiesced:
            raise MPIError("communicator is quiesced (checkpoint in progress)")
        volume = nbytes_per_neighbour * neighbours
        yield self.cloud.env.timeout(
            2 * self._latency + volume / self.cloud.spec.network.nic_bandwidth
        )

    # -- checkpoint support -------------------------------------------------------------------

    def quiesce(self) -> Generator:
        """Simulation process: the marker step of the protocol (one barrier).

        After quiescing, no rank may exchange until :meth:`resume_comm` is
        called; the coordinated protocol then dumps the processes knowing
        there is no in-transit message to lose.
        """
        self._quiesced = True
        yield from self.barrier()

    def resume_comm(self) -> None:
        self._quiesced = False
