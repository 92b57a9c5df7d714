"""The BlobSeer version manager.

The version manager is the serialization point of BlobSeer: it assigns BLOB
ids, assigns monotonically increasing version numbers to published snapshots
and records, for every version, its size and lineage (which BLOB/version it
was derived or cloned from).  The actual data and stripe maps live on the
data providers and metadata providers respectively; the version manager only
deals in small records, which is why it scales to many concurrent writers.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.util.errors import StorageError, VersionNotFoundError


@dataclass(frozen=True)
class VersionRecord:
    """One published snapshot of a BLOB."""

    blob_id: int
    version: int
    #: logical size of the BLOB in this version (bytes)
    size: int
    #: bytes of new chunk data introduced by this version
    incremental_bytes: int
    #: ``(blob_id, version)`` this version was derived from, if any
    parent: Optional[Tuple[int, int]]
    #: free-form tag recorded by the publisher (e.g. "checkpoint-3")
    tag: str = ""


_version_of = attrgetter("version")


@dataclass
class BlobInfo:
    """Registry entry of one BLOB."""

    blob_id: int
    chunk_size: int
    #: the BLOB this one was cloned from, if any
    cloned_from: Optional[Tuple[int, int]] = None
    versions: List[VersionRecord] = field(default_factory=list)

    def record(self, version: int) -> VersionRecord:
        # ``versions`` is ascending, also after garbage collection pruned it
        index = bisect_left(self.versions, version, key=_version_of)
        if index < len(self.versions) and self.versions[index].version == version:
            return self.versions[index]
        raise VersionNotFoundError(f"blob {self.blob_id} has no version {version}")


class VersionManager:
    """Registry of BLOBs and their published versions."""

    def __init__(self) -> None:
        self._blobs: Dict[int, BlobInfo] = {}
        self._ids = itertools.count(1)

    # -- BLOB lifecycle ------------------------------------------------------------

    def create_blob(self, chunk_size: int, *, cloned_from: Optional[Tuple[int, int]] = None) -> int:
        if chunk_size <= 0:
            raise StorageError(f"chunk size must be positive: {chunk_size}")
        blob_id = next(self._ids)
        self._blobs[blob_id] = BlobInfo(
            blob_id=blob_id, chunk_size=chunk_size, cloned_from=cloned_from
        )
        return blob_id

    def get(self, blob_id: int) -> BlobInfo:
        try:
            return self._blobs[blob_id]
        except KeyError:
            raise StorageError(f"unknown blob {blob_id}") from None

    def blobs(self) -> List[BlobInfo]:
        return list(self._blobs.values())

    # -- version publishing ------------------------------------------------------------

    def publish(
        self,
        blob_id: int,
        *,
        size: int,
        incremental_bytes: int,
        parent: Optional[Tuple[int, int]],
        tag: str = "",
    ) -> VersionRecord:
        """Assign the next version number of ``blob_id`` and record it."""
        info = self.get(blob_id)
        version = info.versions[-1].version + 1 if info.versions else 0
        record = VersionRecord(
            blob_id=blob_id,
            version=version,
            size=size,
            incremental_bytes=incremental_bytes,
            parent=parent,
            tag=tag,
        )
        info.versions.append(record)
        return record

    def latest(self, blob_id: int) -> VersionRecord:
        info = self.get(blob_id)
        if not info.versions:
            raise VersionNotFoundError(f"blob {blob_id} has no published version")
        return info.versions[-1]

    def record(self, blob_id: int, version: int) -> VersionRecord:
        return self.get(blob_id).record(version)

    def size_of(self, blob_id: int, version: Optional[int] = None) -> int:
        if version is None:
            return self.latest(blob_id).size
        return self.record(blob_id, version).size
