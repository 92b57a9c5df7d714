"""BlobSeer: a versioning BLOB storage service (functional core).

BlobSeer [Nicolae et al., JPDC 2011] is the storage substrate of BlobCR's
checkpoint repository.  It stores *BLOBs* (binary large objects) striped into
fixed-size chunks that are distributed and replicated over many data
providers, and exposes **versioning** semantics:

* every write produces a new immutable *snapshot version* of the BLOB while
  physically storing only the new chunks (**shadowing**);
* a BLOB can be **cloned**: the clone initially shares every chunk with its
  origin and then diverges independently;
* reads address an explicit version and may proceed concurrently with writes.

This package is a from-scratch, in-process reimplementation of those
semantics.  It is purely functional (no simulated time); the timing of remote
chunk/metadata accesses is charged by the deployment wrapper in
:mod:`repro.core.repository`, which maps providers onto simulated cluster
nodes.

Public API
----------

* :class:`~repro.blobseer.client.BlobClient` -- user-facing handle
  (``create_blob``, ``read``, ``write_batch``, ``clone``, ``release``)
* :class:`~repro.blobseer.version_manager.VersionManager`
* :class:`~repro.blobseer.provider.ProviderManager` -- placement, and the
  one store of content: stored runs (:class:`~repro.blobseer.provider.StoredRun`)
  kept in the run tables of the data providers
  (:class:`~repro.blobseer.provider.DataProvider`); ``store_run``,
  ``live_prefix``, ``release``
* :class:`~repro.blobseer.metadata.MetadataStore` -- segment-tree metadata
  with shadowing, over :class:`~repro.blobseer.metadata.StripeRun` records,
  each pointing at the stored run that holds it
"""

from repro.blobseer.provider import Chunk, ChunkKey, DataProvider, ProviderManager, StoredRun
from repro.blobseer.metadata import ChunkDescriptor, MetadataStore, SegmentNode, StripeRun
from repro.blobseer.version_manager import BlobInfo, VersionManager, VersionRecord
from repro.blobseer.client import BlobClient, WriteResult

__all__ = [
    "Chunk",
    "ChunkKey",
    "DataProvider",
    "ProviderManager",
    "StoredRun",
    "ChunkDescriptor",
    "MetadataStore",
    "SegmentNode",
    "StripeRun",
    "BlobInfo",
    "VersionManager",
    "VersionRecord",
    "BlobClient",
    "WriteResult",
]
