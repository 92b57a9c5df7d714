"""The deduplication engine: fingerprinting + index + codec, glued together.

The engine is owned by :class:`~repro.blobseer.client.BlobClient` and consulted
on the write path for every stripe payload:

* :meth:`ingest` fingerprints the payload and answers "is this content already
  stored?".  On a *hit* it returns the stored run that holds it, which the
  new stripe then references instead of shipping a copy.  On a *miss* it
  returns the physical size the codec will store and the CPU cost; the client
  stores the chunk and completes the handshake with :meth:`register_canonical`.
  A generated (:class:`SyntheticBytes`) window is hashed once per process
  (:func:`~repro.dedup.fingerprint.content_digest` memoises it by its
  content key); a memo hit still goes through the index and the live-provider
  check.
* A run that leaves the store (snapshot collection, the rollback of a failed
  write) is taken out of :attr:`DedupEngine.index` by the client; one that was
  lost with its providers is found out by the next ``ingest`` that meets it.

All CPU costs (fingerprinting and compression) are *returned*, not slept --
the functional storage core has no clock; the deployment layer charges them
to the simulation environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.dedup.codec import StorageCodec, make_codec
from repro.dedup.fingerprint import content_digest, is_zero_content
from repro.dedup.index import ChunkIndex
from repro.util.bytesource import ByteSource

if TYPE_CHECKING:  # blobseer.client imports this module: a runtime import would be a cycle
    from repro.blobseer.provider import ProviderManager, StoredRun


@dataclass(frozen=True)
class IngestDecision:
    """Outcome of fingerprinting one stripe payload on the write path."""

    digest: str
    #: the stored run that already holds identical content (hits only)
    run: Optional[StoredRun] = None
    #: physical bytes the codec will store (misses only; 0 for hits)
    stored_size: int = 0
    #: fingerprint + compression CPU to charge to the simulation clock
    cpu_seconds: float = 0.0

    @property
    def duplicate(self) -> bool:
        """True when identical content is already stored."""
        return self.run is not None


class DedupEngine:
    """Content-addressed dedup + compression policy for a chunk store."""

    def __init__(self, codec: Optional[StorageCodec] = None, fingerprint_bandwidth: float = 0.0):
        self.codec = codec or make_codec("identity")
        #: bytes/s of BLAKE2b hashing charged as CPU time (0 disables charging)
        self.fingerprint_bandwidth = fingerprint_bandwidth
        self.index = ChunkIndex()
        #: indexed runs found lost with their providers and stored afresh
        self.invalidated_chunks = 0
        #: bytes the chunks registered as canonical occupy after compression
        self.physical_bytes_stored = 0

    # -- write path -----------------------------------------------------------------

    def _fingerprint_cost(self, nbytes: int) -> float:
        if self.fingerprint_bandwidth <= 0:
            return 0.0
        return nbytes / self.fingerprint_bandwidth

    def ingest(self, payload: ByteSource, providers: ProviderManager) -> IngestDecision:
        """Fingerprint ``payload`` and decide between sharing and storing.

        A hit is only valid while a live provider of ``providers`` still holds
        the run; after a fail-stop loss the stale entry is dropped so the
        content is stored afresh instead of shared with a ghost.
        """
        digest = content_digest(payload)
        cpu = self._fingerprint_cost(payload.size)
        run = self.index.lookup(digest)
        if run is not None:
            if providers.live_prefix(run, 0, 1):
                return IngestDecision(digest=digest, run=run, cpu_seconds=cpu)
            self.index.forget(run)
            self.invalidated_chunks += 1
        stored = self.codec.stored_size(
            payload.size, is_zero=is_zero_content(digest, payload.size)
        )
        cpu += self.codec.compress_seconds(payload.size)
        return IngestDecision(digest=digest, stored_size=stored, cpu_seconds=cpu)

    def register_canonical(self, decision: IngestDecision, run: StoredRun) -> None:
        """Complete a miss: offer the run just stored to later writes."""
        self.physical_bytes_stored += decision.stored_size
        self.index.add(decision.digest, run)


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
