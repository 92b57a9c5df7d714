"""Content-addressed index of the stored runs.

The :class:`ChunkIndex` maps a content digest to the stored run that holds
that content.  A stripe whose content is already stored references that run
instead of shipping a copy; whether a run is still needed is decided by what
the retained versions reach (the garbage collector's mark and sweep), not
counted here.  The index only has to *forget* a run that left the store.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.util.errors import StorageError

if TYPE_CHECKING:  # blobseer.client imports repro.dedup: a runtime import would be a cycle
    from repro.blobseer.provider import StoredRun


class ChunkIndex:
    """Digest -> stored run map (every run in it is a run of one chunk)."""

    def __init__(self) -> None:
        self._by_digest: Dict[str, StoredRun] = {}
        self._digests: Dict[StoredRun, str] = {}

    def __len__(self) -> int:
        return len(self._by_digest)

    def lookup(self, digest: str) -> Optional[StoredRun]:
        return self._by_digest.get(digest)

    def add(self, digest: str, run: StoredRun) -> None:
        """Offer the newly stored ``run`` to later writes of the same content."""
        if digest in self._by_digest:
            raise StorageError(f"digest {digest} already has a stored run")
        if run in self._digests:
            raise StorageError(f"chunk ({run.blob_id}, {run.first_chunk_id}) is already indexed")
        self._by_digest[digest] = run
        self._digests[run] = digest

    def forget(self, run: StoredRun) -> None:
        """Stop offering ``run`` (it left the store, or was lost with its
        providers); a run the index does not know is passed over.

        Stripes that share a lost run stay lost -- exactly the data loss an
        unreplicated provider failure already implies -- but *future* writes
        of the same content store a fresh run instead of sharing a ghost.
        """
        digest = self._digests.pop(run, None)
        if digest is not None:
            del self._by_digest[digest]
