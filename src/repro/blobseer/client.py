"""Client-side access interface of BlobSeer.

The client implements the user-visible primitives on top of the version
manager, the metadata store and the data providers:

``create_blob``
    register a new, empty BLOB (version 0).
``write``
    store new data at an arbitrary offset and publish it as a new version
    (shadowing: unchanged stripes keep pointing at their old chunks).
``read``
    fetch any byte range of any published version.
``clone``
    create a new BLOB that initially shares all content with an existing
    version and can then diverge (copy-on-write at stripe granularity).

Writes are striped at the BLOB's chunk size; partial-stripe writes perform a
read-modify-write of the affected stripe against the base version so that
every stored chunk is self-contained.  The client is also the place where
placement (replication) is requested from the provider manager.

Each mutating call returns a :class:`WriteResult` describing exactly which
chunks were stored where and how many metadata nodes were allocated -- the
deployment layer (:mod:`repro.core.repository`) uses this to charge simulated
network and disk time without re-implementing the storage logic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.blobseer.metadata import ChunkDescriptor, MetadataStore
from repro.blobseer.provider import Chunk, ChunkKey, ProviderManager
from repro.blobseer.version_manager import VersionManager, VersionRecord
from repro.dedup.engine import DedupEngine
from repro.util.bytesource import ByteSource, LiteralBytes, ZeroBytes, concat
from repro.util.errors import StorageError


@dataclass
class WriteResult:
    """Outcome of a ``write`` / ``create_blob`` / ``clone`` operation."""

    blob_id: int
    record: VersionRecord
    #: chunks physically stored by this operation: (key, stored size, provider
    #: ids).  Stripes absorbed by the dedup layer do not appear here -- no
    #: data was shipped for them.
    chunks: List[Tuple[ChunkKey, int, Tuple[str, ...]]] = field(default_factory=list)
    #: segment-tree nodes allocated by the metadata update
    metadata_nodes: int = 0
    #: total payload bytes of the write before dedup / compression
    logical_bytes: int = 0
    #: stripes whose content was already stored (aliased, not shipped)
    dedup_hits: int = 0
    #: logical bytes those stripes would have shipped without dedup
    dedup_saved_bytes: int = 0
    #: fingerprinting + compression CPU to charge to the simulation clock
    compression_cpu_seconds: float = 0.0

    @property
    def version(self) -> int:
        return self.record.version

    @property
    def bytes_written(self) -> int:
        """Physical bytes shipped to providers by this operation (one replica)."""
        return sum(size for _key, size, _prov in self.chunks)

    @property
    def provider_bytes(self) -> Dict[str, int]:
        """Bytes shipped to each provider (replicas included)."""
        per: Dict[str, int] = {}
        for _key, size, providers in self.chunks:
            for provider_id in providers:
                per[provider_id] = per.get(provider_id, 0) + size
        return per


class ReadSegment(NamedTuple):
    """One piece of a read plan: where a byte window comes from.

    A ``NamedTuple`` (not a frozen dataclass): restore plans create one
    segment per stripe, and tuple construction is several times cheaper
    than ``object.__setattr__``-based frozen-dataclass init.
    """

    offset: int
    length: int
    descriptor: Optional[ChunkDescriptor]  # None => hole (zero bytes)
    #: offset of the window inside the stored chunk
    chunk_offset: int = 0


class BlobClient:
    """User-facing handle to a BlobSeer deployment (functional core)."""

    def __init__(
        self,
        version_manager: Optional[VersionManager] = None,
        metadata: Optional[MetadataStore] = None,
        providers: Optional[ProviderManager] = None,
        *,
        default_chunk_size: int = 256 * 1024,
        dedup: Optional[DedupEngine] = None,
    ) -> None:
        self.version_manager = version_manager or VersionManager()
        self.metadata = metadata or MetadataStore()
        self.providers = providers or ProviderManager()
        self.default_chunk_size = default_chunk_size
        self.dedup = dedup
        self._chunk_ids = itertools.count(1)
        # Reads address chunks by their logical key; the provider manager
        # resolves dedup aliases through the metadata store transparently.
        self.providers.alias_resolver = self.metadata.resolve_chunk
        if self.dedup is not None:
            # A dedup hit is only valid while a live provider still holds the
            # canonical chunk; provider failures invalidate stale entries.
            self.dedup.availability = (
                lambda key: len(self.providers.locations(key)) > 0
            )

    # -- BLOB lifecycle ----------------------------------------------------------------

    def create_blob(
        self,
        chunk_size: Optional[int] = None,
        initial_data: Optional[ByteSource] = None,
        tag: str = "",
    ) -> int:
        """Create a BLOB; optionally populate version 1 with ``initial_data``."""
        size = chunk_size or self.default_chunk_size
        blob_id = self.version_manager.create_blob(size)
        self.metadata.create_empty(blob_id, version=0, stripes_hint=1)
        self.version_manager.publish(
            blob_id, size=0, incremental_bytes=0, parent=None, tag=tag or "create"
        )
        if initial_data is not None and initial_data.size > 0:
            self.write(blob_id, 0, initial_data, tag="initial-data")
        return blob_id

    def size(self, blob_id: int, version: Optional[int] = None) -> int:
        return self.version_manager.size_of(blob_id, version)

    def latest_version(self, blob_id: int) -> int:
        return self.version_manager.latest(blob_id).version

    # -- write path ---------------------------------------------------------------------

    def write(
        self,
        blob_id: int,
        offset: int,
        data: ByteSource,
        base_version: Optional[int] = None,
        tag: str = "",
    ) -> WriteResult:
        """Write ``data`` at ``offset`` and publish the result as a new version."""
        return self.write_batch(
            blob_id, [(offset, data)], base_version=base_version, tag=tag or f"write@{offset}"
        )

    def write_batch(
        self,
        blob_id: int,
        pieces: List[Tuple[int, ByteSource]],
        base_version: Optional[int] = None,
        tag: str = "",
    ) -> WriteResult:
        """Write several ``(offset, data)`` pieces and publish them as **one**
        new version.

        This is the primitive the mirroring module's COMMIT uses: all blocks
        dirtied since the previous snapshot become a single incremental
        snapshot of the checkpoint image.  Later pieces overwrite earlier ones
        where they overlap.
        """
        for offset, _data in pieces:
            if offset < 0:
                raise StorageError(f"negative write offset {offset}")
        info = self.version_manager.get(blob_id)
        chunk_size = info.chunk_size
        base = (
            self.version_manager.latest(blob_id).version if base_version is None else base_version
        )
        base_record = self.version_manager.record(blob_id, base)
        new_version = info.versions[-1].version + 1

        # Split every piece into per-stripe windows; later pieces win.
        stripe_windows: Dict[int, Dict[int, ByteSource]] = {}
        for offset, data in pieces:
            if data.size == 0:
                continue
            first_stripe = offset // chunk_size
            last_stripe = (offset + data.size - 1) // chunk_size
            for stripe in range(first_stripe, last_stripe + 1):
                stripe_start = stripe * chunk_size
                stripe_end = stripe_start + chunk_size
                win_start = max(offset, stripe_start)
                win_end = min(offset + data.size, stripe_end)
                payload = data.slice(win_start - offset, win_end - win_start)
                stripe_windows.setdefault(stripe, {})[win_start - stripe_start] = payload

        updates: Dict[int, ChunkDescriptor] = {}
        chunks: List[Tuple[ChunkKey, int, Tuple[str, ...]]] = []
        logical_bytes = 0
        dedup_hits = 0
        dedup_saved = 0
        cpu_seconds = 0.0
        #: aliases recorded by this (not yet published) batch, undone together
        #: with the stored chunks if a later stripe fails -- otherwise the
        #: leaked refcounts would keep canonical chunks unreclaimable forever
        batch_aliases: List[ChunkKey] = []
        try:
            for stripe in sorted(stripe_windows):
                windows = stripe_windows[stripe]
                if len(windows) == 1:
                    ((start, payload),) = windows.items()
                    full_cover = start == 0 and payload.size == chunk_size
                    if not full_cover:
                        payload = self._merge_partial_stripe(
                            blob_id, base, base_record.size, stripe, chunk_size,
                            payload, start
                        )
                else:
                    payload = self._merge_windows(
                        blob_id, base, base_record.size, stripe, chunk_size, windows
                    )
                key = ChunkKey(blob_id=blob_id, chunk_id=next(self._chunk_ids))
                logical_bytes += payload.size
                stored_size: Optional[int] = None
                if self.dedup is not None:
                    ingest = self.dedup.ingest(payload)
                    cpu_seconds += ingest.cpu_seconds
                    if ingest.duplicate:
                        # Identical content is already stored: record a logical
                        # -> canonical alias instead of shipping the chunk.
                        self.metadata.register_chunk_alias(key, ingest.canonical_key)
                        batch_aliases.append(key)
                        updates[stripe] = ChunkDescriptor(
                            stripe_index=stripe,
                            length=payload.size,
                            key=key,
                            providers=ingest.canonical_providers,
                            created_by=(blob_id, new_version),
                            physical_length=0,
                        )
                        dedup_hits += 1
                        dedup_saved += payload.size
                        continue
                    stored_size = ingest.stored_size
                chunk = Chunk(key=key, data=payload, stored_size=stored_size)
                decision = self.providers.store_replicated(chunk)
                if self.dedup is not None:
                    self.dedup.register_canonical(
                        ingest, key, payload.size, tuple(decision.providers)
                    )
                descriptor = ChunkDescriptor(
                    stripe_index=stripe,
                    length=payload.size,
                    key=key,
                    providers=tuple(decision.providers),
                    created_by=(blob_id, new_version),
                    physical_length=stored_size,
                )
                updates[stripe] = descriptor
                chunks.append((key, chunk.footprint, tuple(decision.providers)))
        except Exception:
            self._rollback_batch(chunks, batch_aliases)
            raise

        nodes = self.metadata.derive_version(blob_id, base, new_version, updates)
        new_size = base_record.size
        for offset, data in pieces:
            new_size = max(new_size, offset + data.size)
        record = self.version_manager.publish(
            blob_id,
            size=new_size,
            incremental_bytes=logical_bytes,
            parent=(blob_id, base),
            tag=tag or "write-batch",
        )
        if record.version != new_version:  # pragma: no cover - single-writer invariant
            raise StorageError(
                f"concurrent publish detected on blob {blob_id}: "
                f"expected v{new_version}, got v{record.version}"
            )
        return WriteResult(
            blob_id=blob_id, record=record, chunks=chunks, metadata_nodes=nodes,
            logical_bytes=logical_bytes, dedup_hits=dedup_hits,
            dedup_saved_bytes=dedup_saved, compression_cpu_seconds=cpu_seconds,
        )

    def _rollback_batch(
        self,
        chunks: List[Tuple[ChunkKey, int, Tuple[str, ...]]],
        batch_aliases: List[ChunkKey],
    ) -> None:
        """Undo the side effects of a failed (unpublished) ``write_batch``.

        Aliases are dropped first so their refcounts return to the canonical
        chunks; chunks stored by the batch are then released and physically
        deleted once nothing references them.
        """
        for alias in batch_aliases:
            canonical = self.metadata.resolve_chunk(alias)
            self.metadata.drop_chunk_alias(alias)
            if self.dedup is not None:
                self.dedup.release(canonical)
        for key, _size, _providers in chunks:
            if self.dedup is not None:
                entry = self.dedup.release(key)
                if entry is not None and entry.refcount > 0:
                    # An earlier batch (published) already aliased to this
                    # chunk -- impossible for a fresh key, kept for safety.
                    continue  # pragma: no cover - defensive
            for provider in self.providers.providers:
                provider.delete(key)

    def _merge_windows(
        self,
        blob_id: int,
        base_version: int,
        base_size: int,
        stripe: int,
        chunk_size: int,
        windows: Dict[int, ByteSource],
    ) -> ByteSource:
        """Overlay several windows of one stripe onto its existing contents."""
        stripe_start = stripe * chunk_size
        existing_len = max(0, min(chunk_size, base_size - stripe_start))
        new_len = max(existing_len, max(start + payload.size for start, payload in windows.items()))
        buffer = memoryview(bytearray(new_len))  # gaps between windows stay zero
        if existing_len > 0:
            base = self._read_version(blob_id, base_version, stripe_start, existing_len)
            base.readinto(0, buffer[:existing_len])
        for start in sorted(windows):
            payload = windows[start]
            payload.readinto(0, buffer[start : start + payload.size])
        return LiteralBytes(buffer)

    def _merge_partial_stripe(
        self,
        blob_id: int,
        base_version: int,
        base_size: int,
        stripe: int,
        chunk_size: int,
        payload: ByteSource,
        offset_in_stripe: int,
    ) -> ByteSource:
        """Overlay ``payload`` onto the existing contents of a stripe."""
        stripe_start = stripe * chunk_size
        existing_len = max(0, min(chunk_size, base_size - stripe_start))
        new_len = max(existing_len, offset_in_stripe + payload.size)
        if existing_len > 0:
            old = self._read_version(blob_id, base_version, stripe_start, existing_len)
        else:
            old = LiteralBytes(b"")
        pieces: List[ByteSource] = []
        if offset_in_stripe > 0:
            if old.size >= offset_in_stripe:
                pieces.append(old.slice(0, offset_in_stripe))
            else:
                pieces.append(old)
                pieces.append(ZeroBytes(offset_in_stripe - old.size))
        pieces.append(payload)
        tail_start = offset_in_stripe + payload.size
        if tail_start < new_len:
            pieces.append(old.slice(tail_start, new_len - tail_start))
        return concat(pieces)

    # -- read path -----------------------------------------------------------------------

    def read_plan(
        self,
        blob_id: int,
        offset: int = 0,
        size: Optional[int] = None,
        version: Optional[int] = None,
    ) -> List[ReadSegment]:
        """Describe where each piece of the requested window lives."""
        record = (
            self.version_manager.latest(blob_id)
            if version is None
            else self.version_manager.record(blob_id, version)
        )
        blob_size = record.size
        if size is None:
            size = max(0, blob_size - offset)
        if offset < 0 or size < 0 or offset + size > blob_size:
            raise StorageError(
                f"read window [{offset}, {offset + size}) outside blob of size {blob_size}"
            )
        if size == 0:
            return []
        chunk_size = self.version_manager.get(blob_id).chunk_size
        first_stripe = offset // chunk_size
        last_stripe = (offset + size - 1) // chunk_size
        # One ranged tree collection instead of a root-to-leaf walk per
        # stripe: restores plan whole images, so the window often spans
        # hundreds of stripes.
        by_stripe = {
            desc.stripe_index: desc
            for desc in self.metadata.descriptors_in_range(
                blob_id, record.version, first_stripe, last_stripe
            )
        }
        segments: List[ReadSegment] = []
        for stripe in range(first_stripe, last_stripe + 1):
            stripe_start = stripe * chunk_size
            win_start = max(offset, stripe_start)
            win_end = min(offset + size, stripe_start + chunk_size)
            descriptor = by_stripe.get(stripe)
            segments.append(
                ReadSegment(
                    offset=win_start,
                    length=win_end - win_start,
                    descriptor=descriptor,
                    chunk_offset=win_start - stripe_start,
                )
            )
        return segments

    def _read_version(self, blob_id: int, version: int, offset: int, size: int) -> ByteSource:
        pieces: List[ByteSource] = []
        for segment in self.read_plan(blob_id, offset, size, version):
            if segment.descriptor is None:
                pieces.append(ZeroBytes(segment.length))
                continue
            chunk = self.providers.fetch_any(
                segment.descriptor.key, preferred=segment.descriptor.providers
            )
            available = chunk.data.size - segment.chunk_offset
            take = min(segment.length, max(0, available))
            if take > 0:
                pieces.append(chunk.data.slice(segment.chunk_offset, take))
            if take < segment.length:
                pieces.append(ZeroBytes(segment.length - take))
        return concat(pieces)

    def read(
        self,
        blob_id: int,
        offset: int = 0,
        size: Optional[int] = None,
        version: Optional[int] = None,
    ) -> ByteSource:
        """Read a byte range of a published version (latest by default)."""
        record = (
            self.version_manager.latest(blob_id)
            if version is None
            else self.version_manager.record(blob_id, version)
        )
        if size is None:
            size = max(0, record.size - offset)
        return self._read_version(blob_id, record.version, offset, size)

    # -- clone / snapshot ---------------------------------------------------------------

    def clone(self, blob_id: int, version: Optional[int] = None, tag: str = "") -> int:
        """Create a new BLOB sharing all content with ``blob_id``@``version``."""
        record = (
            self.version_manager.latest(blob_id)
            if version is None
            else self.version_manager.record(blob_id, version)
        )
        new_blob = self.version_manager.create_blob(
            self.version_manager.get(blob_id).chunk_size,
            cloned_from=(blob_id, record.version),
        )
        self.metadata.clone_version(blob_id, record.version, new_blob)
        self.version_manager.publish(
            new_blob,
            size=record.size,
            incremental_bytes=0,
            parent=None,
            tag=tag or f"clone-of-{blob_id}@{record.version}",
        )
        return new_blob

    # -- accounting -----------------------------------------------------------------------

    def storage_footprint(self) -> int:
        """Total bytes physically stored across all providers (replicas included)."""
        return self.providers.total_used_bytes

    def version_footprint(
        self, blob_id: int, version: Optional[int] = None, *, physical: bool = False
    ) -> int:
        """Bytes of unique chunk data referenced by one version.

        ``physical=True`` reports the bytes the version's content actually
        occupies in the store: aliases resolve to their canonical chunk
        (counted once) and compressed chunks count their compressed size.
        """
        record = (
            self.version_manager.latest(blob_id)
            if version is None
            else self.version_manager.record(blob_id, version)
        )
        if not physical:
            return self.metadata.version_footprint(blob_id, record.version)
        seen: set = set()
        total = 0
        for desc in self.metadata.iter_descriptors(blob_id, record.version):
            key = self.metadata.resolve_chunk(desc.key)
            if key in seen:
                continue
            seen.add(key)
            entry = self.dedup.index.entry_for_key(key) if self.dedup else None
            total += entry.stored_size if entry is not None else desc.stored_bytes
        return total

    def incremental_footprint(self, blob_id: int, version: int, *, physical: bool = False) -> int:
        """Bytes of chunk data first introduced by ``version``.

        ``physical=True`` reports what the version actually added to provider
        disks: deduplicated stripes count 0, compressed ones their stored size.
        """
        return self.metadata.incremental_footprint(blob_id, version, physical=physical)
