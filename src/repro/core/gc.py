"""Transparent garbage collection of obsoleted snapshots.

The paper's conclusion lists this as future work: reclaim the space used by
disk snapshots that newer checkpoints have obsoleted.  The collector keeps
the most recent ``keep_latest`` versions of every checkpoint image (plus any
version explicitly pinned, e.g. because a restart may still roll back to it)
and releases what only the discarded versions reference.

It is a mark and sweep over what the metadata tree hands out, pieces of runs.
Mark: every retained version of every BLOB -- the base image and sibling
clones included -- marks the index ranges of each stored run it references.
Sweep: the ranges the dropped versions reference, minus the marks, are
released (:meth:`~repro.blobseer.provider.ProviderManager.release`): a run no
retained version references leaves whole, and no stripe is looked at on its
own unless its run is partially retained.

The dedup layer changes nothing here: a stripe whose content was already
stored references the stored run that holds it, so that run is marked by
every retained stripe that shares it and swept once none does.  Every stripe
reaches its content through a stored run, so nothing is looked up or deleted
by key.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.blobseer.provider import StoredRun
from repro.core.repository import CheckpointRepository
from repro.util.errors import ConfigurationError

#: half-open chunk-index ranges of one stored run
Ranges = List[Tuple[int, int]]


@dataclass
class GCReport:
    """Outcome of one collection pass."""

    examined_blobs: int = 0
    dropped_versions: List[Tuple[int, int]] = field(default_factory=list)
    #: replica chunks released from the providers
    deleted_chunks: int = 0
    #: physical bytes freed on provider disks (replicas included)
    reclaimed_bytes: int = 0


def _uncovered(spans: Ranges, marks: Ranges) -> Iterator[Tuple[int, int]]:
    """The parts of ``spans`` that no range of ``marks`` covers, ascending
    and disjoint (both lists in any order, overlaps allowed)."""
    events = [
        (edge, which, step)
        for which, ranges in enumerate((spans, marks))
        for first, stop in ranges
        for edge, step in ((first, 1), (stop, -1))
    ]
    depth = [0, 0]
    start = None
    for edge, which, step in sorted(events):
        depth[which] += step
        if depth[0] and not depth[1]:
            if start is None:
                start = edge
        elif start is not None:
            if edge > start:
                yield start, edge
            start = None


class SnapshotGarbageCollector:
    """Reclaims storage held by obsoleted incremental snapshots."""

    def __init__(self, repository: CheckpointRepository, keep_latest: int = 1):
        if keep_latest < 1:
            raise ConfigurationError("keep_latest must be >= 1")
        self.repository = repository
        self.keep_latest = keep_latest

    def collect(
        self,
        blob_ids: Optional[Iterable[int]] = None,
        pinned: Optional[Dict[int, Iterable[int]]] = None,
    ) -> GCReport:
        """Collect obsoleted versions of the given BLOBs (all BLOBs by default).

        ``pinned`` maps blob id to version numbers that must be retained even
        if they are not among the latest ``keep_latest``.
        """
        client = self.repository.client
        pinned = {k: set(v) for k, v in (pinned or {}).items()}
        report = GCReport()
        targets = set(blob_ids) if blob_ids is not None else {
            info.blob_id for info in client.version_manager.blobs()
        }

        # Phase 1: decide which versions each blob keeps / drops.
        plans: Dict[int, Tuple[List[int], List[int]]] = {}
        for info in client.version_manager.blobs():
            all_versions = [rec.version for rec in info.versions]
            if info.blob_id not in targets or len(all_versions) <= self.keep_latest:
                plans[info.blob_id] = (all_versions, [])
                continue
            keep_set = set(all_versions[-self.keep_latest:]) | pinned.get(info.blob_id, set())
            keep = [v for v in all_versions if v in keep_set]
            drop = [v for v in all_versions if v not in keep_set]
            plans[info.blob_id] = (keep, drop)
            report.examined_blobs += 1

        # Phase 2, mark: per stored run, the index ranges that retained
        # versions of any blob (the base image and sibling clones included)
        # reference, and those that dropped versions do.
        metadata = client.metadata
        marks: Dict[StoredRun, Ranges] = {}
        sweep: Dict[StoredRun, Ranges] = {}
        for blob_id, (keep, drop) in plans.items():
            for versions, ranges in ((keep, marks), (drop, sweep)):
                extents = chain.from_iterable(
                    metadata.extents_in_range(blob_id, version, 0, sys.maxsize)  # every stripe
                    for version in versions
                )
                for run, first, last in extents:
                    ranges.setdefault(run.stored, []).append(
                        (first - run.first_stripe, last - run.first_stripe + 1)
                    )

        # Phase 3, sweep: what only dropped versions reference is released.
        for run, spans in sweep.items():
            for first, stop in _uncovered(spans, marks.get(run, ())):
                chunks, nbytes = client.release(run, first, stop)
                report.deleted_chunks += chunks
                report.reclaimed_bytes += nbytes

        # Phase 4: forget the dropped versions' metadata and records.
        for blob_id, (keep, drop) in plans.items():
            if not drop:
                continue
            info = client.version_manager.get(blob_id)
            for version in drop:
                metadata.drop_version(blob_id, version)
                report.dropped_versions.append((blob_id, version))
            keep_set = set(keep)
            info.versions = [rec for rec in info.versions if rec.version in keep_set]
        return report
