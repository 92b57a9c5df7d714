"""Rank-based message passing over the simulated cluster network.

A :class:`MPICommunicator` owns ``size`` ranks.  Each rank is pinned to a VM
instance (several ranks per instance when VMs are multi-core, as in the CM1
experiment: 4 MPI processes per quad-core VM).  Point-to-point messages
between ranks on different instances cross the network model; messages
between co-located ranks pay only a small shared-memory copy overhead.

The communicator also implements the pieces the coordinated checkpoint
protocol relies on: ``quiesce`` (stop accepting new sends and drain pending
messages -- the "marker" step) and ``resume``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List

from repro.cluster.cloud import Cloud
from repro.sim.resources import Store
from repro.util.errors import MPIError

#: cost of an intra-node (shared memory) message, seconds
_SHM_LATENCY = 2e-6


@dataclass
class MPIRank:
    """One MPI process."""

    rank: int
    instance_id: str
    node_name: str


class MPICommunicator:
    """``MPI_COMM_WORLD`` over the deployed instances."""

    def __init__(self, cloud: Cloud, placements: List[MPIRank]):
        if not placements:
            raise MPIError("a communicator needs at least one rank")
        ranks = sorted(p.rank for p in placements)
        if ranks != list(range(len(placements))):
            raise MPIError(f"ranks must be 0..{len(placements) - 1}, got {ranks}")
        self.cloud = cloud
        self._ranks: Dict[int, MPIRank] = {p.rank: p for p in placements}
        self._mailboxes: Dict[int, Store] = {
            p.rank: Store(cloud.env, name=f"mpi-rank-{p.rank}") for p in placements
        }
        self._quiesced = False
        self.messages_sent = 0
        self.bytes_sent = 0

    # -- basic queries --------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._ranks)

    def rank_info(self, rank: int) -> MPIRank:
        try:
            return self._ranks[rank]
        except KeyError:
            raise MPIError(f"no rank {rank} in a communicator of size {self.size}") from None

    # -- point to point ---------------------------------------------------------------------

    def send(self, src: int, dst: int, nbytes: int, payload: Any = None, tag: int = 0) -> Generator:
        """Simulation process: blocking send of ``nbytes`` from ``src`` to ``dst``."""
        if self._quiesced:
            raise MPIError("communicator is quiesced (checkpoint in progress)")
        src_info, dst_info = self.rank_info(src), self.rank_info(dst)
        if src_info.node_name == dst_info.node_name:
            yield self.cloud.env.timeout(_SHM_LATENCY + nbytes / 4e9)
        else:
            yield self.cloud.network.transfer(
                src_info.node_name, dst_info.node_name, nbytes,
                label=f"mpi:{src}->{dst}",
            )
        self._mailboxes[dst].put((src, tag, nbytes, payload))
        self.messages_sent += 1
        self.bytes_sent += nbytes

    def recv(self, dst: int) -> Generator:
        """Simulation process: blocking receive; returns ``(src, tag, nbytes, payload)``."""
        message = yield self._mailboxes[dst].get()
        return message

    # -- collectives --------------------------------------------------------------------------

    def barrier(self) -> Generator:
        """Simulation process: dissemination barrier across all ranks."""
        import math

        rounds = max(1, math.ceil(math.log2(max(2, self.size))))
        latency = self.cloud.spec.network.latency + self.cloud.spec.network.message_overhead
        yield self.cloud.env.timeout(2 * rounds * latency)

    def allreduce(self, nbytes_per_rank: int) -> Generator:
        """Simulation process: recursive-doubling allreduce of ``nbytes_per_rank``."""
        import math

        rounds = max(1, math.ceil(math.log2(max(2, self.size))))
        latency = self.cloud.spec.network.latency + self.cloud.spec.network.message_overhead
        per_round = nbytes_per_rank / max(1.0, self.cloud.spec.network.nic_bandwidth)
        yield self.cloud.env.timeout(rounds * (2 * latency + per_round))

    def halo_exchange(self, nbytes_per_neighbour: int, neighbours: int = 4) -> Generator:
        """Simulation process: nearest-neighbour exchange (one stencil iteration).

        Every rank sends/receives ``nbytes_per_neighbour`` with each of its
        ``neighbours``; exchanges proceed concurrently, so the cost is that of
        the per-rank volume over the NIC plus latency, not of the global sum.
        """
        latency = self.cloud.spec.network.latency + self.cloud.spec.network.message_overhead
        volume = nbytes_per_neighbour * neighbours
        yield self.cloud.env.timeout(2 * latency + volume / self.cloud.spec.network.nic_bandwidth)
        self.messages_sent += neighbours
        self.bytes_sent += volume

    # -- checkpoint support -------------------------------------------------------------------

    def quiesce(self) -> Generator:
        """Simulation process: drain the channels (the marker step of the protocol).

        After quiescing, no rank may send until :meth:`resume_comm` is called;
        the coordinated protocol then dumps the processes knowing there is no
        in-transit message to lose.
        """
        self._quiesced = True
        yield from self.barrier()
        # Deliver (discard) anything still sitting in the mailboxes.
        drained = sum(len(box) for box in self._mailboxes.values())
        for box in self._mailboxes.values():
            while box.try_get() is not None:
                pass
        return drained

    def resume_comm(self) -> None:
        self._quiesced = False

    @property
    def is_quiesced(self) -> bool:
        return self._quiesced
