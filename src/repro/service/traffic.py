"""Background tenant traffic: endless bulk flows across the fabric.

The ``contention`` and ``mig`` scenarios load the network with these
same-size flows, on node pairs disjoint from (and reserved away from) the
nodes hosting VM instances.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.cloud import Cloud


def background_flow(cloud: Cloud, src: str, dst: str, chunk_bytes: int, stop: Dict[str, bool]):
    """One tenant: an endless sequence of bulk transfers across the fabric."""
    while not stop["done"]:
        yield cloud.network.transfer(src, dst, chunk_bytes, label=f"tenant:{src}->{dst}")

