"""The deduplication engine: fingerprinting + index + codec, glued together.

The engine is owned by :class:`~repro.blobseer.client.BlobClient` and consulted
on the write path for every stripe payload:

* :meth:`ingest` fingerprints the payload and answers "is this content already
  stored?".  On a *hit* it bumps the canonical chunk's refcount and returns the
  canonical key (the client records a logical->canonical alias instead of
  shipping the chunk).  On a *miss* it returns the physical size the codec will
  store and the CPU cost; the client stores the chunk and completes the
  handshake with :meth:`register_canonical`.
* :meth:`release` is driven by the garbage collector when a chunk descriptor
  is dropped; it reports whether the physical chunk may now be reclaimed.

All CPU costs (fingerprinting and compression) are *returned*, not slept --
the functional storage core has no clock; the deployment layer charges them
to the simulation environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.dedup.codec import StorageCodec, make_codec
from repro.dedup.fingerprint import content_digest, is_zero_content
from repro.dedup.index import CanonicalChunk, ChunkIndex
from repro.util.bytesource import ByteSource

if TYPE_CHECKING:  # blobseer.client imports this module: a runtime import would be a cycle
    from repro.blobseer.provider import ChunkKey


@dataclass(frozen=True)
class IngestDecision:
    """Outcome of fingerprinting one stripe payload on the write path."""

    digest: str
    #: True when identical content is already stored
    duplicate: bool
    #: canonical key / providers to alias to (hits only)
    canonical_key: Optional[ChunkKey] = None
    canonical_providers: Tuple[str, ...] = ()
    #: physical bytes the codec will store (misses only; 0 for hits)
    stored_size: int = 0
    #: fingerprint + compression CPU to charge to the simulation clock
    cpu_seconds: float = 0.0


class DedupEngine:
    """Content-addressed dedup + compression policy for a chunk store."""

    def __init__(self, codec: Optional[StorageCodec] = None, fingerprint_bandwidth: float = 0.0):
        self.codec = codec or make_codec("identity")
        #: bytes/s of BLAKE2b hashing charged as CPU time (0 disables charging)
        self.fingerprint_bandwidth = fingerprint_bandwidth
        self.index = ChunkIndex()
        #: liveness probe for canonical chunks (wired by the BlobClient): a
        #: dedup hit is only valid while some live provider still holds the
        #: canonical replica; after a fail-stop loss the stale entry must be
        #: dropped so the content is stored afresh instead of aliased to a
        #: ghost chunk
        self.availability: Optional[Callable[[ChunkKey, Tuple[str, ...]], bool]] = None
        self.invalidated_chunks = 0
        #: bytes the chunks registered as canonical occupy after compression
        self.physical_bytes_stored = 0

    # -- write path -----------------------------------------------------------------

    def _fingerprint_cost(self, nbytes: int) -> float:
        if self.fingerprint_bandwidth <= 0:
            return 0.0
        return nbytes / self.fingerprint_bandwidth

    def ingest(self, payload: ByteSource) -> IngestDecision:
        """Fingerprint ``payload`` and decide between aliasing and storing."""
        digest = content_digest(payload)
        cpu = self._fingerprint_cost(payload.size)
        entry = self.index.lookup(digest)
        if (
            entry is not None
            and self.availability is not None
            and not self.availability(entry.key, entry.providers)
        ):
            self.index.discard(entry.key)
            self.invalidated_chunks += 1
            entry = None
        if entry is not None and entry.logical_size == payload.size:
            self.index.acquire(digest)
            return IngestDecision(
                digest=digest, duplicate=True, canonical_key=entry.key,
                canonical_providers=entry.providers, cpu_seconds=cpu,
            )
        stored = self.codec.stored_size(
            payload.size, is_zero=is_zero_content(digest, payload.size)
        )
        cpu += self.codec.compress_seconds(payload.size)
        return IngestDecision(
            digest=digest, duplicate=False, stored_size=stored, cpu_seconds=cpu,
        )

    def register_canonical(
        self,
        decision: IngestDecision,
        key: ChunkKey,
        logical_size: int,
        providers: Tuple[str, ...],
    ) -> CanonicalChunk:
        """Complete a miss: record the chunk just stored as canonical."""
        self.physical_bytes_stored += decision.stored_size
        return self.index.add(
            decision.digest, key, logical_size, decision.stored_size, providers
        )

    # -- reclamation ---------------------------------------------------------------

    def release(self, key: ChunkKey) -> Optional[CanonicalChunk]:
        """Drop one descriptor reference on the canonical chunk ``key``.

        Returns the index entry (refcount already decremented; reclaim the
        physical chunk iff it reached 0) or ``None`` when the key was never
        indexed (stored before/without dedup).
        """
        return self.index.release(key)


def build_engine(spec) -> Optional[DedupEngine]:
    """Build an engine from a :class:`repro.util.config.DedupSpec` (or None)."""
    if spec is None or not spec.enabled:
        return None
    codec = make_codec(
        spec.codec,
        ratio=spec.compression_ratio,
        compress_bandwidth=spec.compress_bandwidth,
        decompress_bandwidth=spec.decompress_bandwidth,
    )
    return DedupEngine(codec, fingerprint_bandwidth=spec.fingerprint_bandwidth)
