"""Metric definitions (names, units, clocks, bounds) and how each is derived.

Two clocks, never mixed: ``host`` is what the simulator costs on this machine
(noisy), ``sim`` is what the modelled cluster would take (exact for a fixed
seed; the model is unvalidated against hardware, so no error figure exists).

``END_TO_END`` holds the 13 end-to-end metrics the tool reports per workload.
``BENCHMARK.json`` can list only those defined -- and never 0 -- on *every*
workload (``contract=True``); the workload-specific simulated results are
listed there under ``per_layer`` instead, reported as 0 where not applicable.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from perfbench.boundaries import BOUNDARIES


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    clock: str  # "host" | "sim" | "check"
    better: str
    #: share of the parent's median by which the metric may worsen; 0 = must not move
    bound: float
    definition: str
    #: listed under ``end_to_end`` in BENCHMARK.json (defined and non-zero everywhere)
    contract: bool = False


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "host", "lower", 0.25,
             "spawn of the pass's interpreter -> first run_scenario call about to start "
             "(interpreter, import repro.api, registry, validation, enumeration)", True),
    EndToEnd("wall_s", "s", "host", "lower", 0.25,
             "perf_counter around the workload's run_scenario calls, tracing off", True),
    EndToEnd("cpu_s", "s", "host", "lower", 0.25,
             "process_time (user+sys) over the same region", True),
    EndToEnd("peak_rss_mb", "MiB", "host", "lower", 0.25,
             "ru_maxrss of the pass's subprocess", True),
    EndToEnd("failed_share", "ratio", "check", "lower", 0.0,
             "cells failing the output check / cells attempted"),
    EndToEnd("sim_total_s", "sim_s", "sim", "lower", 0.02,
             "sum of CellResult.sim_time_s", True),
    EndToEnd("sim_checkpoint_s", "sim_s", "sim", "lower", 0.02,
             "sum of payload checkpoint_time (commit_times on fig7 cells)"),
    EndToEnd("sim_restart_s", "sim_s", "sim", "lower", 0.02,
             "sum of payload restart_time"),
    EndToEnd("stored_bytes_per_user_byte", "ratio", "sim", "lower", 0.02,
             "storage_after_checkpoint / (instances * buffer_bytes); "
             "stored_bytes[-1] / logical_bytes[-1] on fig7 cells"),
    EndToEnd("sim_ckpt_p99_s", "sim_s", "sim", "lower", 0.02,
             "payload checkpoint_p99 (service workloads only)"),
    EndToEnd("sim_restart_p99_s", "sim_s", "sim", "lower", 0.02,
             "payload restart_p99 (service workloads only)"),
    EndToEnd("sim_queue_wait_p99_s", "sim_s", "sim", "lower", 0.02,
             "payload queue_wait_p99 (service workloads only)"),
    EndToEnd("reject_rate", "ratio", "sim", "lower", 0.0,
             "payload rejection_rate (service workloads only)"),
)  # fmt: skip

HOST_METRICS = tuple(m.name for m in END_TO_END if m.clock == "host")
SIM_METRICS = tuple(m.name for m in END_TO_END if m.clock == "sim")
CONTRACT_END_TO_END = tuple(m for m in END_TO_END if m.contract)

_SERVICE_FIELDS = {
    "sim_ckpt_p99_s": "checkpoint_p99",
    "sim_restart_p99_s": "restart_p99",
    "sim_queue_wait_p99_s": "queue_wait_p99",
    "reject_rate": "rejection_rate",
}


def sim_metrics(cells: Sequence[Mapping[str, Any]]) -> Dict[str, Optional[float]]:
    """The sim-clock end-to-end metrics of one pass (``None`` = not applicable)."""
    payloads = [cell["payload"] for cell in cells]
    checkpoint = [p["checkpoint_time"] for p in payloads if "checkpoint_time" in p]
    checkpoint += [sum(p["commit_times"]) for p in payloads if "commit_times" in p]
    restart = [p["restart_time"] for p in payloads if "restart_time" in p]
    stored = user = 0
    for p in payloads:
        if all(k in p for k in ("storage_after_checkpoint", "instances", "buffer_bytes")):
            stored += p["storage_after_checkpoint"]
            user += p["instances"] * p["buffer_bytes"]
        elif "stored_bytes" in p and "logical_bytes" in p:
            stored += p["stored_bytes"][-1]
            user += p["logical_bytes"][-1]
    out: Dict[str, Optional[float]] = {
        "sim_total_s": sum(cell["sim_s"] for cell in cells),
        "sim_checkpoint_s": sum(checkpoint) if checkpoint else None,
        "sim_restart_s": sum(restart) if restart else None,
        "stored_bytes_per_user_byte": stored / user if user else None,
    }
    service = bool(payloads) and all("rejection_rate" in p for p in payloads)
    for name, field in _SERVICE_FIELDS.items():
        out[name] = max(p[field] for p in payloads) if service else None
    return out


def summarise(values: Iterable[float]) -> Dict[str, Any]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and n of a sample.

    The median is ``median_low``: for an even n the lower middle value, not
    the mean of the two, so that one slowed-down pass out of two cannot drag
    it (host noise on a CPU-bound deterministic pass is one-sided).
    """
    data = sorted(values)
    if not data:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(data) == 1:
        return {"median": data[0], "q1": data[0], "q3": data[0], "n": 1}
    q1, _, q3 = statistics.quantiles(data, n=4)
    return {"median": statistics.median_low(data), "q1": q1, "q3": q3, "n": len(data)}


# -- per-layer metrics -------------------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: where the number comes from: "counter" (always-on, untraced pass),
    #: "trace" (the traced pass), "sim" (cell payloads)
    source: str
    #: the end-to-end metric this one should move, and on which workload
    moves: str
    on: str


_COUNTER_FIELDS = {
    "sim.core.events_popped": "events_popped",
    "sim.bandwidth.flows_started": "bw_flows_started",
    "sim.bandwidth.allocations": "bw_allocations",
    "sim.bandwidth.flows_allocated": "bw_flows_allocated",
    "sim.bandwidth.flows_settled": "bw_flows_settled",
    "sim.bandwidth.batches": "bw_batches",
    "sim.bandwidth.max_component_flows": "bw_max_component_flows",
    "sim.bandwidth.stale_deadlines": "bw_stale_deadlines",
    "sim.bandwidth.cc_rebuilds": "bw_cc_rebuilds",
    "sim.bandwidth.array_full_rebuilds": "bw_array_full_rebuilds",
    "sim.bandwidth.array_delta_updates": "bw_array_delta_updates",
    "sim.resources.requests": "resource_requests",
    "sim.resources.waits": "resource_waits",
}

#: (metric name, span names summed, aggregate field)
_TRACE_FIELDS: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "util.bytesource.read_calls": (("util.bytesource.read",), "calls"),
    "util.bytesource.read_bytes": (("util.bytesource.read",), "bytes"),
    "util.bytesource.slice_calls": (("util.bytesource.slice",), "calls"),
    "util.bytesource.fingerprint_calls": (("util.bytesource.fingerprint",), "calls"),
    "util.bytesource.fingerprint_bytes": (("util.bytesource.fingerprint",), "bytes"),
    "util.bytesource.concat_calls": (("util.bytesource.concat",), "calls"),
    "sim.core.run_calls": (("sim.core.run",), "calls"),
    "cluster.pvfs_write_bytes": (("cluster.pvfs_write",), "bytes"),
    "cluster.pvfs_read_bytes": (("cluster.pvfs_read",), "bytes"),
    "cluster.hypervisor_boot_calls": (("cluster.hypervisor_boot",), "calls"),
    "blobseer.client.write_batch_calls": (("blobseer.client.write_batch",), "calls"),
    "blobseer.client.write_batch_bytes": (("blobseer.client.write_batch",), "bytes"),
    "blobseer.client.write_batch_s": (("blobseer.client.write_batch",), "total_s"),
    "blobseer.client.read_calls": (("blobseer.client.read",), "calls"),
    "blobseer.client.read_bytes": (("blobseer.client.read",), "bytes"),
    "blobseer.client.read_s": (("blobseer.client.read",), "total_s"),
    "blobseer.client.read_plan_calls": (("blobseer.client.read_plan",), "calls"),
    "blobseer.client.clone_calls": (("blobseer.client.clone",), "calls"),
    "blobseer.provider.place_calls": (("blobseer.provider.place",), "calls"),
    "blobseer.provider.place_s": (("blobseer.provider.place",), "total_s"),
    "blobseer.provider.store_calls": (("blobseer.provider.store",), "calls"),
    "blobseer.provider.fetch_calls": (("blobseer.provider.fetch",), "calls"),
    "blobseer.metadata.derive_version_calls": (("blobseer.metadata.derive_version",), "calls"),
    "blobseer.metadata.derive_version_s": (("blobseer.metadata.derive_version",), "total_s"),
    "blobseer.metadata.descriptors_in_range_calls":
        (("blobseer.metadata.descriptors_in_range",), "calls"),
    "blobseer.metadata.resolve_chunk_calls": (("blobseer.metadata.resolve_chunk",), "calls"),
    "dedup.ingest_calls": (("dedup.ingest",), "calls"),
    "dedup.ingest_bytes": (("dedup.ingest",), "bytes"),
    "dedup.hits": (("dedup.ingest",), "flagged"),
    "vdisk.qcow2_write_calls": (("vdisk.qcow2_write",), "calls"),
    "vdisk.qcow2_read_calls": (("vdisk.qcow2_read",), "calls"),
    "vdisk.qcow2_self_s": (("vdisk.qcow2_write", "vdisk.qcow2_read"), "self_s"),
    "vdisk.blockdev_write_calls": (("vdisk.blockdev_write",), "calls"),
    "vdisk.blockdev_read_calls": (("vdisk.blockdev_read",), "calls"),
    "vdisk.blockdev_self_s": (("vdisk.blockdev_write", "vdisk.blockdev_read"), "self_s"),
    "guest.write_file_calls": (("guest.write_file",), "calls"),
    "guest.write_file_bytes": (("guest.write_file",), "bytes"),
    "guest.read_file_calls": (("guest.read_file",), "calls"),
    "guest.sync_calls": (("guest.sync",), "calls"),
    "core.commit_calls": (("core.commit",), "calls"),
    "core.commit_bytes": (("core.commit",), "bytes"),
    "core.read_range_calls": (("core.read_range",), "calls"),
    "core.read_range_bytes": (("core.read_range",), "bytes"),
    "core.mirroring_write_calls": (("core.mirroring_write",), "calls"),
    "service.admission_submits": (("service.admission",), "calls"),
    "service.admission_rejects": (("service.admission",), "flagged"),
}  # fmt: skip

#: host time with a phase span open (kept spans; overlapping tenants count once)
_ELAPSED_FIELDS = {
    "core.deploy_s": "core.deploy",
    "core.checkpoint_s": "core.checkpoint_all",
    "core.restart_s": "core.restart_all",
}

#: layers whose summed self time is reported as ``<layer>.self_s``
_SELF_LAYERS = (
    "util.bytesource", "sim.core", "cluster", "blobseer.client", "blobseer.provider",
    "blobseer.metadata", "dedup", "guest", "core", "baselines", "service",
)  # fmt: skip

def _unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _workload_of(name: str) -> str:
    """The workload on which this layer metric should move ``wall_s``."""
    if name.startswith("blobseer."):
        return "blobcr_120"
    if name.startswith(("util.bytesource.", "dedup.", "host.")):
        return "dedup_commit"
    if name.startswith(("vdisk.qcow2", "cluster.pvfs", "baselines.", "sim.bandwidth.")):
        return "scale_512"
    if name.startswith(("sim.", "service.", "guest.")):
        return "service_mtc_256"
    if name.startswith(("runner.", "scenarios.")):
        return "reduced_suite"
    return "blobcr_120"  # core.*, vdisk.blockdev*, cluster.hypervisor*: the BlobCR data path


def _build_layer_metrics() -> Tuple[LayerMetric, ...]:
    metrics: List[LayerMetric] = []

    def add(name: str, source: str, unit: Optional[str] = None, better: str = "lower") -> None:
        metrics.append(
            LayerMetric(name, unit or _unit_of(name), better, source, "wall_s", _workload_of(name))
        )

    for name in _COUNTER_FIELDS:
        add(name, "counter")
    add("sim.core.us_per_event", "counter", unit="us/event")
    add("sim.bandwidth.solver_s", "counter")
    add("sim.bandwidth.solver_share", "counter", unit="ratio")
    add("runner.cells", "counter")
    add("runner.cell_wall_sum_s", "counter")
    add("runner.cell_wall_max_s", "counter")
    add("runner.overhead_s", "counter")
    add("host.sys_s", "counter")
    add("host.minor_faults", "counter")
    for name in list(_TRACE_FIELDS) + list(_ELAPSED_FIELDS):
        add(name, "trace")
    for layer in _SELF_LAYERS:
        add(f"{layer}.self_s", "trace")
    add("dedup.hit_ratio", "trace", unit="ratio", better="higher")
    add("scenarios.self_s", "trace")
    add("trace.overhead_ratio", "trace", unit="ratio")
    for metric in END_TO_END:
        if metric.clock == "sim" and not metric.contract:
            metrics.append(
                LayerMetric(
                    metric.name, metric.unit, metric.better, "sim",
                    metric.name, "every workload that defines it",
                )
            )
    return tuple(metrics)


LAYER_METRICS: Tuple[LayerMetric, ...] = _build_layer_metrics()

#: per-layer metrics that are properties of the model, not of the host: two
#: runs of the same code and seed must agree on them exactly
EXACT_LAYER_METRICS = frozenset(_COUNTER_FIELDS) | {"runner.cells"} | {
    name for name, (_spans, field) in _TRACE_FIELDS.items() if field in ("calls", "bytes", "flagged")
}


def counter_metrics(untraced: Mapping[str, Any]) -> Dict[str, Optional[float]]:
    """The per-layer numbers every untraced pass yields for free."""
    wall_s = untraced["wall_s"]
    cells = untraced["cells"]
    counters = untraced.get("counters")
    solver_s = untraced.get("solver_s")
    out: Dict[str, Optional[float]] = {
        name: (counters.get(field) if counters else None)
        for name, field in _COUNTER_FIELDS.items()
    }
    events = out["sim.core.events_popped"]
    out["sim.core.us_per_event"] = wall_s * 1e6 / events if events else None
    out["sim.bandwidth.solver_s"] = solver_s
    out["sim.bandwidth.solver_share"] = solver_s / wall_s if solver_s is not None else None
    cell_walls = [cell["wall_s"] for cell in cells]
    out["runner.cells"] = len(cells)
    out["runner.cell_wall_sum_s"] = sum(cell_walls)
    out["runner.cell_wall_max_s"] = max(cell_walls, default=0.0)
    out["runner.overhead_s"] = wall_s - sum(cell_walls)
    # kernel time and page faults of the measured region: allocator churn shows here
    out["host.sys_s"] = untraced.get("sys_s")
    out["host.minor_faults"] = untraced.get("minor_faults")
    return out


def trace_metrics(
    traced: Mapping[str, Any], untraced_wall_s: float
) -> Dict[str, Optional[float]]:
    """Per-layer numbers of the traced pass.

    Metrics fed only by unresolved boundaries read ``None``.
    """
    trace = traced["trace"]
    unresolved = {row["span"] for row in trace["unresolved_boundaries"]}
    resolved = {row.span_name for row in BOUNDARIES} - unresolved
    totals: Dict[str, Dict[str, float]] = {}
    elapsed: Dict[str, float] = {}
    layer_self: Dict[str, float] = {}
    for cell in trace["cells"]:
        for row in cell["aggregates"]:
            entry = totals.setdefault(row["span"], {})
            for field in ("calls", "total_s", "self_s", "bytes", "flagged"):
                entry[field] = entry.get(field, 0) + row[field]
            layer_self[row["layer"]] = layer_self.get(row["layer"], 0.0) + row["self_s"]
        for name, seconds in cell["elapsed_s"].items():
            elapsed[name] = elapsed.get(name, 0.0) + seconds

    out: Dict[str, Optional[float]] = {}
    for name, (spans, field) in _TRACE_FIELDS.items():
        live = [span for span in spans if span in resolved]
        out[name] = sum(totals.get(span, {}).get(field, 0) for span in live) if live else None
    for name, span in _ELAPSED_FIELDS.items():
        out[name] = elapsed.get(span, 0.0) if span in resolved else None
    for layer in _SELF_LAYERS:
        live = any(row.layer == layer and row.span_name in resolved for row in BOUNDARIES)
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0) if live else None
    ingests = out["dedup.ingest_calls"]
    out["dedup.hit_ratio"] = (out["dedup.hits"] or 0) / ingests if ingests else 0.0
    out["scenarios.self_s"] = sum(cell["self_s"] for cell in trace["cells"])
    out["trace.overhead_ratio"] = traced["wall_s"] / untraced_wall_s
    return out


def trace_closure(traced: Mapping[str, Any]) -> Tuple[float, float]:
    """``(sum of every span's self time, sum of traced cell wall)`` -- equal
    up to clock reads when nothing is double-counted or lost."""
    cells = traced["trace"]["cells"]
    self_s = sum(cell["self_s"] + sum(row["self_s"] for row in cell["aggregates"]) for cell in cells)
    return self_s, sum(cell["wall_s"] for cell in cells)
