"""A PVFS-like parallel file system (baseline substrate).

The paper's baselines store qcow2 images and full VM snapshots on PVFS
deployed across all nodes.  The model here captures what matters for the
comparison:

* a single metadata server that serialises file create/open/close operations
  (a well-known PVFS scalability limit),
* data striped across many I/O servers, whose sustained aggregate write
  throughput under heavy concurrency is a configurable fraction of the raw
  aggregate disk bandwidth (:attr:`PVFSSpec.concurrency_efficiency`) --
  the effect the paper repeatedly credits for BlobSeer's advantage,
* a functional file store so that images written to PVFS can actually be
  read back and booted from by the baselines, and so that storage-space
  figures come from real file sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.cluster.cloud import Cloud
from repro.sim.resources import Resource
from repro.util.config import PVFSSpec
from repro.util.errors import FileSystemError, StorageError


@dataclass
class PVFSFile:
    """One file stored in PVFS."""

    name: str
    size: int
    #: the functional payload (a QcowImage, a ByteSource, ...); PVFS does not
    #: interpret it, it only persists it
    payload: Any = None


class PVFSDeployment:
    """PVFS deployed over the cloud's compute nodes."""

    def __init__(
        self, cloud: Cloud, spec: Optional[PVFSSpec] = None, metadata_node: Optional[str] = None
    ):
        self.cloud = cloud
        self.spec = spec or cloud.spec.pvfs
        self.spec.validate()
        servers = min(self.spec.io_servers, len(cloud.compute_nodes))
        if servers < 1:
            raise StorageError("PVFS needs at least one I/O server")
        self.server_nodes: List[str] = [n.name for n in cloud.compute_nodes[:servers]]
        self.metadata_node = metadata_node or (
            cloud.service_nodes[0].name if cloud.service_nodes else self.server_nodes[0]
        )
        self._metadata_server = Resource(cloud.env, capacity=1, name="pvfs-mds")
        disk_bw = cloud.spec.disk.bandwidth
        bandwidth = cloud.network.bandwidth
        #: aggregate ingest capacity of the striped write path
        self.write_channel = bandwidth.channel(
            max(1.0, servers * disk_bw * self.spec.concurrency_efficiency), "pvfs.write"
        )
        #: aggregate read capacity of the striped read path
        self.read_channel = bandwidth.channel(
            max(1.0, servers * disk_bw * self.spec.read_efficiency), "pvfs.read"
        )
        self._files: Dict[str, PVFSFile] = {}

    # -- metadata ---------------------------------------------------------------------

    def _metadata_op(self, client: str, count: int = 1) -> Generator:
        """One or more serialised metadata-server operations."""
        for _ in range(count):
            request = self._metadata_server.request()
            yield request
            try:
                yield self.cloud.env.timeout(self.spec.metadata_op_time)
            finally:
                self._metadata_server.release(request)
        yield self.cloud.network.message(client, self.metadata_node, label="pvfs-md")

    # -- data path -----------------------------------------------------------------------

    def write_file(self, client: str, name: str, size: int, payload: Any = None) -> Generator:
        """Simulation process: store a file of ``size`` bytes from ``client``
        (replacing one of the same name)."""
        if size < 0:
            raise StorageError(f"negative file size: {size}")
        # create + layout + close on the metadata server
        yield from self._metadata_op(client, count=2)
        if size > 0:
            # data flows through the client NIC and the switch into the
            # striped server pool (aggregate ingest channel)
            channels = [
                self.cloud.network.nic_tx(client), self.cloud.network.switch, self.write_channel
            ]
            yield self.cloud.network.bandwidth.transfer(
                size, channels,
                latency=self.cloud.spec.network.latency + self.spec.rpc_overhead,
                label=f"pvfs-write:{name}",
            )
        self._files[name] = PVFSFile(name=name, size=size, payload=payload)
        return self._files[name]

    def read_file(self, client: str, name: str, size: Optional[int] = None) -> Generator:
        """Simulation process: read a file (or its first ``size`` bytes) on ``client``."""
        try:
            entry = self._files[name]
        except KeyError:
            raise FileSystemError(f"no such PVFS file: {name}") from None
        yield from self._metadata_op(client, count=1)
        nbytes = entry.size if size is None else min(size, entry.size)
        if nbytes > 0:
            channels = [
                self.read_channel, self.cloud.network.switch, self.cloud.network.nic_rx(client)
            ]
            yield self.cloud.network.bandwidth.transfer(
                nbytes, channels,
                latency=self.cloud.spec.network.latency + self.spec.rpc_overhead,
                label=f"pvfs-read:{name}",
            )
        return entry

    # -- functional access (no timing) ------------------------------------------------------

    def exists(self, name: str) -> bool:
        return name in self._files

    @property
    def total_stored_bytes(self) -> int:
        """Sum of the sizes of every stored file (Figure 5b accounting)."""
        return sum(f.size for f in self._files.values())
