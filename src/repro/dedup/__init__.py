"""Content-addressed deduplication & compression for the checkpoint repository.

Successive checkpoints of the same application re-store large amounts of
identical content whenever the mirroring module's COW granularity misses the
overlap (an application that rewrites its whole state file dirties every
block even if most bytes did not change).  This package adds the canonical
fix -- a content-addressed store -- as an opt-in layer under BlobSeer:

* :mod:`repro.dedup.fingerprint` -- stable content digests over
  :class:`~repro.util.bytesource.ByteSource` payloads;
* :mod:`repro.dedup.codec` -- pluggable storage codecs (identity, simulated
  zlib / LZ4) that model compressed size and CPU cost;
* :mod:`repro.dedup.index` -- digest -> stored run map;
* :mod:`repro.dedup.engine` -- the write-path policy object owned by
  :class:`~repro.blobseer.client.BlobClient`.

Enable it through :class:`repro.util.config.DedupSpec` on
``BlobSeerSpec.dedup``; the ``fig7`` ablation experiment measures the effect.
"""

from repro.dedup.codec import (
    HEADER_BYTES,
    IdentityCodec,
    SimulatedCodec,
    StorageCodec,
    make_codec,
)
from repro.dedup.engine import DedupEngine, IngestDecision, build_engine
from repro.dedup.fingerprint import content_digest, is_zero_content, zero_digest
from repro.dedup.index import ChunkIndex

__all__ = [
    "HEADER_BYTES",
    "IdentityCodec",
    "SimulatedCodec",
    "StorageCodec",
    "make_codec",
    "DedupEngine",
    "IngestDecision",
    "build_engine",
    "content_digest",
    "is_zero_content",
    "zero_digest",
    "ChunkIndex",
]
