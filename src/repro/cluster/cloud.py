"""Top-level assembly of the simulated IaaS cloud, and the per-cell registry of clouds."""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cluster.network import Network
from repro.cluster.node import ComputeNode
from repro.obs.tracer import Tracer
from repro.sim.core import Environment, Event
from repro.util.config import ClusterSpec, GRAPHENE
from repro.util.errors import SimulationError
from repro.util.rng import keyed_uniform

#: the innermost active :func:`clouds` scope: (its registry, whether it traces)
_scope: Optional[Tuple[List["Cloud"], bool]] = None


@contextmanager
def clouds(trace: bool = False) -> Iterator[List["Cloud"]]:
    """Register every :class:`Cloud` built inside the ``with`` block.

    Yields the registry, a list the clouds append themselves to in creation
    order.  With ``trace`` each of them gets its own
    :class:`~repro.obs.tracer.Tracer` on ``env.tracer``; a cloud built
    outside any scope is registered nowhere and untraced.  Scopes nest: the
    outer one is active again on exit, and holds none of the inner one's
    clouds.  Nothing outlives the scope but the list it yielded.
    """
    global _scope
    outer, registry = _scope, []
    _scope = (registry, trace)
    try:
        yield registry
    finally:
        _scope = outer


class Cloud:
    """The simulated datacenter: environment, network, compute and service nodes.

    Node naming follows the paper's deployment: ``node-XXX`` are compute
    nodes that host VM instances, data providers, mirroring modules and
    checkpointing proxies; ``service-XX`` are the dedicated nodes running the
    BlobSeer version manager, provider manager and metadata providers (or the
    PVFS metadata server for the baselines).
    """

    def __init__(self, spec: Optional[ClusterSpec] = None):
        self.spec = spec or GRAPHENE
        self.spec.validate()
        registry, trace = _scope or (None, False)
        tracer = None
        if trace:
            # One trace group ("process" in the Chrome export) per simulated
            # cloud: a cell typically builds one cloud per approach under
            # test, and their sim clocks all start at zero.
            tracer = Tracer(f"cloud[{self.spec.compute_nodes}+{self.spec.service_nodes} nodes]")
        self.env = Environment(tracer)
        self.network = Network(self.env, self.spec.network, solver=self.spec.solver)
        self.compute_nodes: List[ComputeNode] = [
            ComputeNode(self.env, self.network, self.spec.disk, f"node-{i:03d}")
            for i in range(self.spec.compute_nodes)
        ]
        self.service_nodes: List[ComputeNode] = [
            ComputeNode(self.env, self.network, self.spec.disk, f"service-{i:02d}")
            for i in range(self.spec.service_nodes)
        ]
        self._nodes: Dict[str, ComputeNode] = {
            n.name: n for n in self.compute_nodes + self.service_nodes
        }
        #: node name -> owner token; lets several deployments share one cloud
        #: (the service layer) without double-booking compute nodes
        self._reservations: Dict[str, object] = {}
        #: the guest pid namespace: pids leak into checkpoint content (the BLCR
        #: context-file header), so each cloud numbers its own processes and
        #: a cell's results never depend on another cloud alive beside it
        self.pids: Iterator[int] = itertools.count(1000)
        if registry is not None:
            registry.append(self)

    # -- lookup -----------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.env.now

    def node(self, name: str) -> ComputeNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise SimulationError(f"unknown node {name}") from None

    def live_compute_nodes(self) -> List[ComputeNode]:
        return [n for n in self.compute_nodes if n.alive]

    # -- node reservations --------------------------------------------------------------

    def reserve_nodes(self, count: int, owner: object) -> List[str]:
        """Claim ``count`` live, unreserved compute nodes for ``owner``.

        Nodes are picked in deterministic index order, so on a fresh cloud
        with a single deployment the result is exactly the first ``count``
        compute nodes (the historical single-tenant placement).
        """
        free = [
            n.name
            for n in self.compute_nodes
            if n.alive and n.name not in self._reservations
        ]
        if count > len(free):
            raise SimulationError(
                f"cannot reserve {count} compute nodes: only {len(free)} live "
                "unreserved nodes remain"
            )
        picked = free[:count]
        for name in picked:
            self._reservations[name] = owner
        return picked

    def claim_nodes(self, names: List[str], owner: object) -> None:
        """Mark specific nodes as reserved by ``owner`` (e.g. restart targets)."""
        for name in names:
            holder = self._reservations.get(name)
            if holder is not None and holder is not owner:
                raise SimulationError(f"node {name} is already reserved by another deployment")
        for name in names:
            self._reservations[name] = owner

    def release_owned(self, owner: object) -> None:
        """Drop every reservation held by ``owner`` (dead nodes included)."""
        for name in [n for n, holder in self._reservations.items() if holder is owner]:
            del self._reservations[name]

    def reserved_by_others(self, owner: object) -> List[str]:
        """Names of nodes currently reserved by a different owner."""
        return [n for n, holder in self._reservations.items() if holder is not owner]

    # -- composite I/O helpers -----------------------------------------------------------

    def remote_read(self, src: str, dst: str, nbytes: float, label: str = "") -> Event:
        """Read ``nbytes`` stored on ``src``'s disk into node ``dst``."""
        src_node = self.node(src)
        src_node.check_alive()
        self.node(dst).check_alive()
        return self.network.transfer(
            src, dst, nbytes, label=label or f"remote-read:{src}->{dst}",
            extra_channels=[src_node.disk.channel],
        )

    # -- jitter -----------------------------------------------------------------------------

    def jittered(self, nominal: float, key: object) -> float:
        """Apply the cluster's execution-time jitter to a nominal duration.

        Identical VMs never run in perfect lockstep; the paper's adaptive
        prefetching explicitly exploits these small delays.  The factor is
        drawn from the cluster seed and ``key`` alone, so a key always draws
        the same one.
        """
        jitter = self.spec.jitter
        if nominal <= 0 or jitter <= 0:
            return max(0.0, nominal)
        factor = 1.0 + keyed_uniform(-jitter, jitter, "jitter", self.spec.seed, key)
        return max(0.0, nominal * factor)

    # -- running ---------------------------------------------------------------------------

    def run(self, until=None):
        """Run the simulation (thin wrapper over ``Environment.run``)."""
        return self.env.run(until)

    def process(self, generator, name: str = ""):
        return self.env.process(generator, name=name)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Cloud compute={len(self.compute_nodes)} service={len(self.service_nodes)} "
            f"t={self.env.now:.3f}>"
        )
