"""Figure 7 (ablation): content-addressed dedup & compression in the repository.

This experiment goes beyond the paper: it measures how much of the storage
growth of Figure 5b is *redundant* content that a content-addressed layer
under BlobSeer can fold away.  The workload models the common failure mode of
COW-granularity incremental snapshots: an application that rewrites its whole
state file on every checkpoint epoch dirties **every** block, even though only
a fraction of the blocks actually changed content.  Plain BlobCR must then
re-store the full file per checkpoint; with dedup, unchanged blocks share
the chunks already stored, and a codec squeezes what remains.

Three repository configurations are compared over N successive checkpoints:

* ``off``   -- the paper's repository (dedup disabled, the default),
* ``dedup`` -- content-addressed dedup with the identity codec,
* ``zlib``  -- dedup plus simulated zlib compression (CPU cost charged).

For each configuration the experiment records per checkpoint: the commit
completion time, the cumulative physical bytes on the providers and the dedup
ratio (logical/physical).  Every snapshot version is then read back (shared
chunks included) and verified byte-for-byte against the expected content,
which is what makes the ablation trustworthy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cloud import Cloud
from repro.core.repository import CheckpointRepository
from repro.scenarios.results import ExperimentResult
from repro.runner.cells import CellResult
from repro.runner.registry import register_scenario
from repro.scenarios.spec import Axis, ScenarioSpec
from repro.scenarios.workloads import require_positive
from repro.util.bytesource import ByteSource, SyntheticBytes, content_equal
from repro.util.config import GRAPHENE, ClusterSpec, DedupSpec
from repro.util.errors import ConfigurationError
from repro.util.units import MB

_DESCRIPTION = (
    "successive whole-file checkpoints: commit time (s), physical storage "
    "(MB) and dedup ratio with the content-addressed layer off/on"
)

#: repository configurations of the ablation: label -> DedupSpec
FIG7_MODES: Dict[str, DedupSpec] = {
    "off": DedupSpec(enabled=False),
    "dedup": DedupSpec(enabled=True, codec="identity"),
    "zlib": DedupSpec(enabled=True, codec="zlib"),
}


def _block_payload(block: int, epoch: int, block_size: int) -> ByteSource:
    """Deterministic content of one state-file block at one content epoch."""
    return SyntheticBytes(("fig7", block, epoch), block_size)


def run_fig7_cell(
    mode: str,
    checkpoints: int = 5,
    state_bytes: int = 16 * MB,
    changed_fraction: float = 0.25,
    spec: Optional[ClusterSpec] = None,
) -> Dict[str, Any]:
    """Run one fig7 repository configuration and return its trajectories."""
    dedup = FIG7_MODES[mode]
    spec = (spec or GRAPHENE).scaled(compute_nodes=8, service_nodes=4)
    block_size = spec.blobseer.chunk_size
    require_positive(checkpoints=checkpoints)
    if state_bytes < block_size:
        raise ConfigurationError(
            f"state_bytes must be >= {block_size} (one chunk), got {state_bytes}"
        )
    if not 0 < changed_fraction <= 1:
        raise ConfigurationError(f"changed_fraction must be in (0, 1], got {changed_fraction}")
    cloud = Cloud(spec.scaled(blobseer=replace(spec.blobseer, dedup=dedup)))
    repository = CheckpointRepository(cloud)
    client_node = cloud.compute_nodes[0].name
    nblocks = state_bytes // block_size
    changed_per_epoch = max(1, int(round(nblocks * changed_fraction)))
    commit_times: List[float] = []
    stored_bytes: List[int] = []
    #: cumulative physical bytes per checkpoint, one replica (dedup ratio
    #: must not be skewed by the replication factor)
    physical_bytes: List[int] = []
    logical_bytes: List[int] = []
    snapshots: List[Tuple[int, Dict[int, int]]] = []  # (version, contents)

    def scenario():
        blob_id = repository.client.create_blob(block_size, tag="fig7-state")
        #: content epoch of every block of the state file
        contents = {block: 0 for block in range(nblocks)}
        for epoch in range(1, checkpoints + 1):
            # The application rewrites the whole file, but only a rotating
            # subset of blocks actually carries new content.
            for i in range(changed_per_epoch):
                contents[((epoch - 1) * changed_per_epoch + i) % nblocks] = epoch
            blocks = {
                block: _block_payload(block, contents[block], block_size)
                for block in range(nblocks)
            }
            t0 = cloud.now
            result = yield from repository.commit_blocks(
                client_node, blob_id, blocks, block_size, tag=f"fig7-ckpt-{epoch}"
            )
            commit_times.append(cloud.now - t0)
            stored_bytes.append(repository.total_stored_bytes)
            physical_bytes.append(
                repository.dedup.physical_bytes_stored
                if repository.dedup is not None
                else repository.bytes_committed
            )
            logical_bytes.append(repository.logical_bytes_committed)
            snapshots.append((result.version, dict(contents)))
        return blob_id

    blob_id = cloud.run(cloud.process(scenario(), name=f"fig7:{dedup.codec}"))

    # Verify every snapshot restores byte-identical content, shared chunks
    # included.  The reads only describe the versions; the comparison walks
    # block-major, so a block that a version did not change is served by the
    # block cache instead of generated again.
    restored = [
        (repository.client.read(blob_id, 0, nblocks * block_size, version=version), contents)
        for version, contents in snapshots
    ]
    restored_ok = all(
        content_equal(
            data.slice(block * block_size, block_size),
            _block_payload(block, contents[block], block_size),
        )
        for block in range(nblocks)
        for data, contents in restored
    )

    return {
        "mode": mode,
        "enabled": dedup.enabled,
        "commit_times": commit_times,
        "stored_bytes": stored_bytes,
        "physical_bytes": physical_bytes,
        "logical_bytes": logical_bytes,
        "restored_ok": restored_ok,
        "sim_time_s": sum(commit_times),
    }


def merge_fig7(results: Sequence[CellResult]) -> ExperimentResult:
    """Merge executed fig7 cells back into the per-checkpoint row layout."""
    result = ExperimentResult(experiment="fig7", description=_DESCRIPTION)
    if not results:
        return result
    checkpoints = max(len(cell.payload["commit_times"]) for cell in results)
    for index in range(checkpoints):
        row: Dict[str, object] = {"checkpoint": index + 1}
        for cell in results:
            payload = cell.payload
            mode = payload["mode"]
            row[f"{mode} time_s"] = payload["commit_times"][index]
            row[f"{mode} stored_MB"] = round(payload["stored_bytes"][index] / 10**6, 2)
            if payload["enabled"]:
                row[f"{mode} ratio"] = round(
                    payload["logical_bytes"][index]
                    / max(1, payload["physical_bytes"][index]),
                    2,
                )
        row["restored_ok"] = all(cell.payload["restored_ok"] for cell in results)
        result.rows.append(row)
    return result


SCENARIO = ScenarioSpec(
    name="fig7",
    description=_DESCRIPTION,
    axes=(
        Axis("mode", ("off", "dedup", "zlib")),
        Axis("checkpoints", (5,)),
        Axis("state_bytes", (16 * MB,)),
        Axis("changed_fraction", (0.25,)),
    ),
    key_axes=("mode",),
    cell_func=run_fig7_cell,
    merge=merge_fig7,
)

register_scenario(SCENARIO)
