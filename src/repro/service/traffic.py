"""Background tenant traffic: endless bulk flows across the fabric.

This is the ``contention`` scenario's machinery, generalised: the scenario
uses it for anonymous same-size flows, the service driver for *per-tenant*
flows with deterministically varied chunk sizes (so tenants do not march in
lockstep).  Flows run on node pairs disjoint from (and reserved away from)
the nodes hosting VM instances.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster.cloud import Cloud
from repro.util.rng import make_rng


def background_flow(cloud: Cloud, src: str, dst: str, chunk_bytes: int, stop: Dict[str, bool]):
    """One tenant: an endless sequence of bulk transfers across the fabric."""
    while not stop["done"]:
        yield cloud.network.transfer(src, dst, chunk_bytes, label=f"tenant:{src}->{dst}")


def start_tenant_flows(
    cloud: Cloud,
    pairs: List[Tuple[str, str]],
    chunk_bytes: int,
    stop: Dict[str, bool],
    seed: object = "traffic",
) -> None:
    """Start one endless background flow per ``(src, dst)`` pair.

    Each flow's chunk size is drawn once from ``make_rng`` keyed by the pair
    index (uniform in ``[0.5, 1.5]`` times ``chunk_bytes``), so
    per-tenant traffic is heterogeneous yet a pure function of the seed.
    """
    for index, (src, dst) in enumerate(pairs):
        rng = make_rng("service-traffic", seed, index)
        factor = 1.0 + float(rng.uniform(-0.5, 0.5))
        chunk = max(1, int(chunk_bytes * factor))
        cloud.process(
            background_flow(cloud, src, dst, chunk, stop),
            name=f"bg-tenant-{index}",
        )
