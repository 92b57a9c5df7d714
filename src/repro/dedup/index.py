"""Content-addressed chunk index with reference counting.

The :class:`ChunkIndex` maps content digests to the *canonical* stored chunk
holding that content.  Every chunk descriptor that references the content --
the canonical chunk's own descriptor plus every deduplicated alias -- holds
one reference; the physical chunk may only be reclaimed when the count drops
to zero (the garbage collector drives :meth:`release`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.util.errors import StorageError

if TYPE_CHECKING:  # blobseer.client imports repro.dedup: a runtime import would be a cycle
    from repro.blobseer.provider import ChunkKey


@dataclass
class CanonicalChunk:
    """Index entry for one physically stored chunk."""

    digest: str
    #: key the chunk is physically stored under
    key: ChunkKey
    logical_size: int
    #: bytes actually occupying provider disks (post-compression)
    stored_size: int
    #: providers holding the replicas (read-path preference for aliases)
    providers: Tuple[str, ...]
    #: number of chunk descriptors (canonical + aliases) referencing this content
    refcount: int = 1


class ChunkIndex:
    """Digest -> canonical chunk map with per-chunk reference counts."""

    def __init__(self) -> None:
        self._by_digest: Dict[str, CanonicalChunk] = {}
        self._by_key: Dict[ChunkKey, CanonicalChunk] = {}

    def __len__(self) -> int:
        return len(self._by_digest)

    @property
    def stored_bytes(self) -> int:
        """Physical bytes of all indexed canonical chunks (one replica each)."""
        return sum(entry.stored_size for entry in self._by_digest.values())

    @property
    def logical_bytes(self) -> int:
        return sum(entry.logical_size for entry in self._by_digest.values())

    # -- lookups -----------------------------------------------------------------

    def lookup(self, digest: str) -> Optional[CanonicalChunk]:
        return self._by_digest.get(digest)

    def entry_for_key(self, key: ChunkKey) -> Optional[CanonicalChunk]:
        return self._by_key.get(key)

    def refcount(self, key: ChunkKey) -> int:
        entry = self._by_key.get(key)
        return entry.refcount if entry is not None else 0

    # -- lifecycle ---------------------------------------------------------------

    def add(
        self,
        digest: str,
        key: ChunkKey,
        logical_size: int,
        stored_size: int,
        providers: Tuple[str, ...],
    ) -> CanonicalChunk:
        """Register a newly stored canonical chunk (initial refcount 1)."""
        if digest in self._by_digest:
            raise StorageError(f"digest {digest} already has a canonical chunk")
        if key in self._by_key:
            raise StorageError(f"chunk {key} is already indexed")
        entry = CanonicalChunk(
            digest=digest, key=key, logical_size=logical_size,
            stored_size=stored_size, providers=providers,
        )
        self._by_digest[digest] = entry
        self._by_key[key] = entry
        return entry

    def acquire(self, digest: str) -> CanonicalChunk:
        """Add one reference (a new alias) to the canonical chunk of ``digest``."""
        try:
            entry = self._by_digest[digest]
        except KeyError:
            raise StorageError(f"no canonical chunk for digest {digest}") from None
        entry.refcount += 1
        return entry

    def release(self, key: ChunkKey) -> Optional[CanonicalChunk]:
        """Drop one reference on the canonical chunk stored under ``key``.

        Returns the entry (so the caller can inspect ``refcount``); when the
        count reaches zero the entry is removed from the index and the caller
        must delete the physical chunk.  Returns ``None`` for keys the index
        does not know about (chunks stored without dedup).
        """
        entry = self._by_key.get(key)
        if entry is None:
            return None
        if entry.refcount <= 0:  # pragma: no cover - internal invariant
            raise StorageError(f"refcount underflow on canonical chunk {key}")
        entry.refcount -= 1
        if entry.refcount == 0:
            del self._by_digest[entry.digest]
            del self._by_key[entry.key]
        return entry

    def discard(self, key: ChunkKey) -> Optional[CanonicalChunk]:
        """Forget an entry regardless of refcount (its physical chunk was lost).

        Existing aliases keep pointing at the lost content -- exactly the data
        loss an unreplicated provider failure already implies -- but *future*
        writes of the same content will store a fresh canonical chunk instead
        of aliasing a ghost.
        """
        entry = self._by_key.pop(key, None)
        if entry is not None:
            del self._by_digest[entry.digest]
        return entry
