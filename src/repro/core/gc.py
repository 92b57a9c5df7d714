"""Transparent garbage collection of obsoleted snapshots.

The paper's conclusion lists this as future work: reclaim the space used by
disk snapshots that newer checkpoints have obsoleted.  The collector keeps
the most recent ``keep_latest`` versions of every checkpoint image (plus any
version explicitly pinned, e.g. because a restart may still roll back to it)
and deletes the chunks that only those discarded versions reference.

Chunks shared with retained versions -- or with the base image through
cloning -- are never touched, which the tests verify.  When the dedup layer
is active, collection is reference-counted: a dropped descriptor releases one
reference on the canonical chunk holding its content, and the physical chunk
is reclaimed only when the last referencing alias is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.blobseer.provider import ChunkKey
from repro.core.repository import CheckpointRepository


@dataclass
class GCReport:
    """Outcome of one collection pass."""

    examined_blobs: int = 0
    dropped_versions: List[Tuple[int, int]] = field(default_factory=list)
    #: per-replica chunk deletions performed on the providers
    deleted_chunks: int = 0
    #: physical bytes freed on provider disks (replicas included)
    reclaimed_bytes: int = 0
    #: dedup aliases dropped with their referencing descriptors
    released_aliases: int = 0
    #: canonical chunks kept alive because other aliases still reference them
    retained_canonical_chunks: int = 0


class SnapshotGarbageCollector:
    """Reclaims storage held by obsoleted incremental snapshots."""

    def __init__(self, repository: CheckpointRepository, keep_latest: int = 1):
        if keep_latest < 1:
            raise ValueError("keep_latest must be >= 1")
        self.repository = repository
        self.keep_latest = keep_latest

    def _referenced_keys(self, blob_id: int, versions: Iterable[int]) -> Set[ChunkKey]:
        client = self.repository.client
        keys: Set[ChunkKey] = set()
        for version in versions:
            keys |= client.chunk_keys(blob_id, version=version)
        return keys

    def _delete_physical(self, keys: Set[ChunkKey], report: GCReport) -> None:
        """Remove every replica of the chunks, accounting the freed disk bytes.

        Provider by provider: which of ``keys`` a provider holds is one walk
        of what it holds, where asking it about each key is a walk per key.
        """
        for provider in self.repository.client.providers.providers:
            for key in keys.intersection(provider.keys()):
                report.deleted_chunks += 1
                report.reclaimed_bytes += provider.delete(key)

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

        # Phase 2: chunks referenced by any retained version of any blob
        # (including the base image and sibling clones) are protected.
        retained_keys: Set[ChunkKey] = set()
        for blob_id, (keep, _drop) in plans.items():
            retained_keys |= self._referenced_keys(blob_id, keep)

        # Phase 3: chunks referenced only by dropped versions can go.  With
        # the dedup layer, a dropped descriptor holds one *reference* on a
        # canonical chunk: the physical chunk dies only when its last alias
        # is dropped (refcount-aware collection).
        drop_keys: Set[ChunkKey] = set()
        for blob_id, (_keep, drop) in plans.items():
            drop_keys |= self._referenced_keys(blob_id, drop)
        drop_keys -= retained_keys

        engine = client.dedup
        metadata = client.metadata
        doomed: Set[ChunkKey] = set()
        for key in drop_keys:
            canonical = metadata.resolve_chunk(key)
            if metadata.drop_chunk_alias(key):
                report.released_aliases += 1
            if engine is not None:
                entry = engine.release(canonical)
                if entry is not None and entry.refcount > 0:
                    # Other descriptors still reference this content.
                    report.retained_canonical_chunks += 1
                    continue
            doomed.add(canonical)
        self._delete_physical(doomed, report)

        # Phase 4: forget the dropped versions' metadata and records.
        for blob_id, (keep, drop) in plans.items():
            if not drop:
                continue
            info = client.version_manager.get(blob_id)
            for version in drop:
                client.metadata.drop_version(blob_id, version)
                report.dropped_versions.append((blob_id, version))
            keep_set = set(keep)
            info.versions = [rec for rec in info.versions if rec.version in keep_set]
        return report
