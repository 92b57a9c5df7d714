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

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.blobseer.metadata import ChunkDescriptor, MetadataStore, StripeRun
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
    #: runs of stripes physically stored by this operation.  Stripes absorbed
    #: by the dedup layer do not appear here -- no data was shipped for them.
    runs: List[StripeRun] = field(default_factory=list)
    #: chunks those runs hold
    chunk_count: int = 0
    #: physical bytes shipped to providers by this operation (one replica)
    bytes_written: int = 0
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
    def chunks(self) -> List[Tuple[ChunkKey, int, Tuple[str, ...]]]:
        """Every stored chunk as (key, stored size, provider ids)."""
        return [
            (desc.key, desc.stored_bytes, desc.providers)
            for run in self.runs
            for desc in map(run.descriptor, range(run.first_stripe, run.last_stripe + 1))
        ]

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
        self._next_chunk_id = 1
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

        Consecutive stripes are placed, stored and indexed as one *run*
        (:class:`~repro.blobseer.metadata.StripeRun`).  With the dedup layer
        on every stripe is a run of its own, so each one is fingerprinted,
        placed, stored and registered before the next is looked at.
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

        # Cut the pieces at stripe boundaries.  A window that covers its
        # stripe stands for it as it is (the shape of every COMMIT: aligned
        # whole blocks) and supersedes what came before; the others are kept
        # in write order to be overlaid on the stripe's contents.
        whole: Dict[int, ByteSource] = {}
        partial: Dict[int, List[Tuple[int, ByteSource]]] = {}
        new_size = base_record.size
        for offset, data in pieces:
            size = data.size
            if size == 0:
                continue
            new_size = max(new_size, offset + size)
            stripe, start = divmod(offset, chunk_size)
            cursor = 0
            while cursor < size:
                take = min(chunk_size - start, size - cursor)
                window = data.slice(cursor, take)
                if take == chunk_size:
                    whole[stripe] = window
                    partial.pop(stripe, None)
                else:
                    partial.setdefault(stripe, []).append((start, window))
                cursor += take
                stripe += 1
                start = 0

        # The one stripe loop: settle each stripe's payload and group
        # consecutive full stripes into runs.
        runs: List[Tuple[int, List[ByteSource]]] = []
        logical_bytes = 0
        next_stripe = -1
        for stripe in sorted(whole.keys() | partial.keys()):
            payload = whole.get(stripe)
            if stripe in partial:
                payload = self._merge_windows(
                    blob_id, base, base_record.size, stripe, chunk_size, payload, partial[stripe]
                )
            size = payload.size
            logical_bytes += size
            if stripe != next_stripe:
                runs.append((stripe, []))
            runs[-1][1].append(payload)
            # a short stripe ends its run; under dedup every stripe does
            next_stripe = stripe + 1 if size == chunk_size and self.dedup is None else -1

        updates: List[StripeRun] = []  # every run of the new version
        stored: List[StripeRun] = []  # those among them whose chunks were shipped
        dedup_hits = 0
        dedup_saved = 0
        cpu_seconds = 0.0
        #: aliases recorded by this (not yet published) batch, undone together
        #: with the stored chunks if a later run fails -- otherwise the
        #: leaked refcounts would keep canonical chunks unreclaimable forever
        batch_aliases: List[ChunkKey] = []
        try:
            for first_stripe, payloads in runs:
                first_chunk_id = self._next_chunk_id
                self._next_chunk_id += len(payloads)
                last_length = payloads[-1].size
                ingest = None
                if self.dedup is not None:
                    ingest = self.dedup.ingest(payloads[0])
                    cpu_seconds += ingest.cpu_seconds
                duplicate = ingest is not None and ingest.duplicate
                if duplicate:
                    # Identical content is already stored: record a logical
                    # -> canonical alias instead of shipping the chunk.
                    key = ChunkKey(blob_id, first_chunk_id)
                    self.metadata.register_chunk_alias(key, ingest.canonical_key)
                    batch_aliases.append(key)
                    providers = (ingest.canonical_providers,)
                    stored_size: Optional[int] = 0
                    dedup_hits += 1
                    dedup_saved += last_length
                else:
                    stored_size = None if ingest is None else ingest.stored_size
                    chunks = [
                        Chunk(ChunkKey(blob_id, chunk_id), payload, stored_size)
                        for chunk_id, payload in enumerate(payloads, first_chunk_id)
                    ]
                    providers = self.providers.store_many(chunks)
                    if ingest is not None:
                        self.dedup.register_canonical(
                            ingest, chunks[0].key, last_length, providers[0]
                        )
                run = StripeRun(
                    first_stripe=first_stripe,
                    blob_id=blob_id,
                    first_chunk_id=first_chunk_id,
                    providers=providers,
                    stripe_length=chunk_size,
                    last_length=last_length,
                    created_by=(blob_id, new_version),
                    physical_length=stored_size,
                )
                updates.append(run)
                if not duplicate:
                    stored.append(run)
        except Exception:
            self._rollback_batch(stored, batch_aliases)
            raise

        nodes = self.metadata.derive_version(blob_id, base, new_version, updates)
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
            blob_id=blob_id,
            record=record,
            runs=stored,
            chunk_count=sum(len(run.providers) for run in stored),
            bytes_written=sum(
                run.span_bytes(run.first_stripe, run.last_stripe, physical=True) for run in stored
            ),
            metadata_nodes=nodes,
            logical_bytes=logical_bytes,
            dedup_hits=dedup_hits,
            dedup_saved_bytes=dedup_saved,
            compression_cpu_seconds=cpu_seconds,
        )

    def _rollback_batch(self, stored: List[StripeRun], batch_aliases: List[ChunkKey]) -> None:
        """Undo the side effects of a failed (unpublished) ``write_batch``.

        Aliases are dropped first so their refcounts return to the canonical
        chunks; chunks stored by the batch are then released and physically
        deleted, from the providers they were placed on, once nothing
        references them.
        """
        for alias in batch_aliases:
            canonical = self.metadata.resolve_chunk(alias)
            self.metadata.drop_chunk_alias(alias)
            if self.dedup is not None:
                self.dedup.release(canonical)
        for run in stored:
            keys = run.keys(run.first_stripe, run.last_stripe)
            for key, providers in zip(keys, run.providers):
                if self.dedup is not None:
                    entry = self.dedup.release(key)
                    if entry is not None and entry.refcount > 0:
                        # An earlier batch (published) already aliased to this
                        # chunk -- impossible for a fresh key, kept for safety.
                        continue  # pragma: no cover - defensive
                for provider_id in providers:
                    self.providers.get(provider_id).delete(key)

    def _merge_windows(
        self,
        blob_id: int,
        base_version: int,
        base_size: int,
        stripe: int,
        chunk_size: int,
        covered: Optional[ByteSource],
        windows: List[Tuple[int, ByteSource]],
    ) -> ByteSource:
        """Overlay ``windows``, in order, onto the contents of one stripe:
        ``covered`` if the batch already replaced the stripe whole, else what
        the base version holds there."""
        stripe_start = stripe * chunk_size
        if covered is not None:
            old = covered
        elif stripe_start < base_size:
            old = self._read_version(
                blob_id, base_version, stripe_start, min(chunk_size, base_size - stripe_start)
            )
        else:
            old = LiteralBytes(b"")
        new_len = max(old.size, max(start + payload.size for start, payload in windows))
        if len(windows) == 1:
            # One window (an unaligned write): splice without materialising.
            ((start, payload),) = windows
            pieces: List[ByteSource] = []
            if start > 0:
                if old.size >= start:
                    pieces.append(old.slice(0, start))
                else:
                    pieces.append(old)
                    pieces.append(ZeroBytes(start - old.size))
            pieces.append(payload)
            tail_start = start + payload.size
            if tail_start < new_len:
                pieces.append(old.slice(tail_start, new_len - tail_start))
            return concat(pieces)
        buffer = memoryview(bytearray(new_len))  # gaps between windows stay zero
        old.readinto(0, buffer[: old.size])
        for start, payload in windows:
            payload.readinto(0, buffer[start : start + payload.size])
        return LiteralBytes(buffer)

    # -- read path -----------------------------------------------------------------------

    def _window(
        self, blob_id: int, offset: int, size: Optional[int], version: Optional[int]
    ) -> Tuple[int, int]:
        """Resolve a read window's defaults and check it: ``(version, size)``."""
        record = (
            self.version_manager.latest(blob_id)
            if version is None
            else self.version_manager.record(blob_id, version)
        )
        if size is None:
            size = max(0, record.size - offset)
        if offset < 0 or size < 0 or offset + size > record.size:
            raise StorageError(
                f"read window [{offset}, {offset + size}) outside blob of size {record.size}"
            )
        return record.version, size

    def read_plan(
        self,
        blob_id: int,
        offset: int = 0,
        size: Optional[int] = None,
        version: Optional[int] = None,
    ) -> List[ReadSegment]:
        """Describe where each piece of the requested window lives."""
        version, size = self._window(blob_id, offset, size, version)
        if size == 0:
            return []
        chunk_size = self.version_manager.get(blob_id).chunk_size
        first_stripe = offset // chunk_size
        last_stripe = (offset + size - 1) // chunk_size
        by_stripe = {
            desc.stripe_index: desc
            for desc in self.metadata.descriptors_in_range(
                blob_id, version, first_stripe, last_stripe
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

    def chunk_keys(
        self,
        blob_id: int,
        offset: int = 0,
        size: Optional[int] = None,
        version: Optional[int] = None,
    ) -> Set[ChunkKey]:
        """Keys of the chunks mapped to the stripes the requested window touches."""
        version, size = self._window(blob_id, offset, size, version)
        if size == 0:
            return set()
        chunk_size = self.version_manager.get(blob_id).chunk_size
        keys: Set[ChunkKey] = set()
        for run, first, last in self.metadata.extents_in_range(
            blob_id, version, offset // chunk_size, (offset + size - 1) // chunk_size
        ):
            keys.update(run.keys(first, last))
        return keys

    def _read_version(self, blob_id: int, version: int, offset: int, size: int) -> ByteSource:
        """The (already checked) window ``[offset, offset + size)`` of a version.

        Walks the runs the window crosses: each run's chunks come back from
        one bulk fetch, and whatever no chunk covers -- holes, and the tail of
        a stripe whose chunk is short -- reads as zeros.
        """
        if size == 0:
            return LiteralBytes(b"")
        end = offset + size
        chunk_size = self.version_manager.get(blob_id).chunk_size
        pieces: List[ByteSource] = []
        cursor = offset  # everything below it is in ``pieces``
        for run, first, last in self.metadata.extents_in_range(
            blob_id, version, offset // chunk_size, (end - 1) // chunk_size
        ):
            index = first - run.first_stripe
            chunks = self.providers.fetch_many(
                run.keys(first, last), run.providers[index : index + last - first + 1]
            )
            stripe_start = first * chunk_size
            for chunk in chunks:
                data = chunk.data
                lo = max(cursor, stripe_start)
                hi = min(end, stripe_start + data.size)
                if lo < hi:
                    if cursor < lo:
                        pieces.append(ZeroBytes(lo - cursor))
                    pieces.append(data.slice(lo - stripe_start, hi - lo))
                    cursor = hi
                stripe_start += chunk_size
        if cursor < end:
            pieces.append(ZeroBytes(end - cursor))
        return concat(pieces)

    def read(
        self,
        blob_id: int,
        offset: int = 0,
        size: Optional[int] = None,
        version: Optional[int] = None,
    ) -> ByteSource:
        """Read a byte range of a published version (latest by default)."""
        version, size = self._window(blob_id, offset, size, version)
        return self._read_version(blob_id, version, offset, size)

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
