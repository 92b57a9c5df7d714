"""Client-side access interface of BlobSeer.

The client implements the user-visible primitives on top of the version
manager, the metadata store and the data providers:

``create_blob``
    register a new, empty BLOB (version 0).
``write_batch``
    store new data at arbitrary offsets and publish it as one new version
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
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.blobseer.metadata import ChunkDescriptor, MetadataStore, StripeRun
from repro.blobseer.provider import ChunkKey, ProviderManager, StoredRun
from repro.blobseer.version_manager import VersionManager, VersionRecord
from repro.dedup.engine import DedupEngine
from repro.util.bytesource import ByteSource, LiteralBytes, ZeroBytes, concat
from repro.util.errors import ChunkNotFoundError, StorageError
from repro.util.ranges import add_range
from repro.util.runmap import RunMap


@dataclass
class WriteResult:
    """Outcome of a ``write_batch`` operation."""

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
    #: stripes whose content was already stored (shared, not shipped)
    dedup_hits: int = 0
    #: logical bytes those stripes would have shipped without dedup
    dedup_saved_bytes: int = 0
    #: fingerprinting + compression CPU to charge to the simulation clock
    compression_cpu_seconds: float = 0.0

    @property
    def version(self) -> int:
        return self.record.version


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


#: per blob id, sorted disjoint half-open ``(first, stop)`` chunk-id ranges
ChunkRanges = Dict[int, List[Tuple[int, int]]]


class BlobClient:
    """User-facing handle to a BlobSeer deployment (functional core)."""

    def __init__(
        self,
        providers: ProviderManager,
        *,
        default_chunk_size: int = 256 * 1024,
        dedup: Optional[DedupEngine] = None,
    ) -> None:
        self.version_manager = VersionManager()
        self.metadata = MetadataStore()
        self.providers = providers
        self.default_chunk_size = default_chunk_size
        self.dedup = dedup
        self._next_chunk_id = 1

    # -- BLOB lifecycle ----------------------------------------------------------------

    def create_blob(self, chunk_size: Optional[int] = None, tag: str = "") -> int:
        """Create an empty BLOB (version 0); its first write publishes version 1."""
        size = chunk_size or self.default_chunk_size
        blob_id = self.version_manager.create_blob(size)
        self.metadata.create_empty(blob_id, version=0, stripes_hint=1)
        self.version_manager.publish(
            blob_id, size=0, incremental_bytes=0, parent=None, tag=tag or "create"
        )
        return blob_id

    def size(self, blob_id: int, version: Optional[int] = None) -> int:
        return self.version_manager.size_of(blob_id, version)

    def latest_version(self, blob_id: int) -> int:
        return self.version_manager.latest(blob_id).version

    # -- write path ---------------------------------------------------------------------

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
        placed, stored and registered before the next is looked at; a stripe
        whose content is already stored references the run that holds it.
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

        # Cut the pieces at stripe boundaries.  The whole stripes a piece
        # covers stay together as one span over one slice of it (a COMMIT at
        # the default geometry writes aligned whole blocks), which supersedes
        # what came before; a window that covers less than its stripe (a
        # COMMIT whose ``cluster.checkpoint.cow_block_size`` is smaller than
        # ``cluster.blobseer.chunk_size``) is overlaid at once where a span
        # already holds the stripe, and is otherwise kept, in write order, to
        # be overlaid on the base version's contents.
        spans = RunMap(chunk_size)
        partial: Dict[int, List[Tuple[int, ByteSource]]] = {}
        base_size = base_record.size

        def overlay(stripe: int, start: int, window: ByteSource) -> None:
            covered = spans.block(stripe)
            if covered is None:
                partial.setdefault(stripe, []).append((start, window))
            else:
                merged = self._merge_windows(
                    blob_id, base, base_size, stripe, chunk_size, covered, [(start, window)]
                )
                spans.put(stripe, 1, merged)

        new_size = base_size
        for offset, data in pieces:
            size = data.size
            if size == 0:
                continue
            new_size = max(new_size, offset + size)
            stripe, start = divmod(offset, chunk_size)
            cursor = 0
            if start or size < chunk_size:
                cursor = min(chunk_size - start, size)
                overlay(stripe, start, data.slice(0, cursor))
                stripe += 1
            whole = (size - cursor) // chunk_size
            if whole:
                spans.put(stripe, whole, data.slice(cursor, whole * chunk_size))
                cursor += whole * chunk_size
                stripe += whole
            if cursor < size:
                overlay(stripe, 0, data.slice(cursor, size - cursor))
        #: merged stripes that end short of a stripe boundary (past the end
        #: of the base version): spans of one that the map, which holds whole
        #: stripes, does not take
        short: List[Tuple[int, Tuple[int, ByteSource, bool]]] = []
        for stripe, windows in partial.items():
            if spans.block(stripe) is None:  # else a later span superseded them
                merged = self._merge_windows(
                    blob_id, base, base_size, stripe, chunk_size, None, windows
                )
                if merged.size == chunk_size:
                    spans.put(stripe, 1, merged)
                else:
                    short.append((stripe, (1, merged, False)))

        # Group the spans that touch into runs: (first stripe, payload parts).
        # A short stripe ends its run; under dedup every stripe is a run.
        runs: List[Tuple[int, List[ByteSource]]] = []
        logical_bytes = 0
        next_stripe = -1
        for stripe, (count, payload, _shared) in sorted(
            chain(zip(spans.starts, spans.runs), short)
        ):
            logical_bytes += payload.size
            if self.dedup is not None and count > 1:
                runs += [
                    (stripe + i, [payload.slice(i * chunk_size, chunk_size)]) for i in range(count)
                ]
                continue
            if stripe != next_stripe:
                runs.append((stripe, []))
            runs[-1][1].append(payload)
            full = payload.size == count * chunk_size and self.dedup is None
            next_stripe = stripe + count if full else -1

        updates: List[StripeRun] = []  # every run of the new version
        stored: List[StripeRun] = []  # those among them whose chunks were shipped
        dedup_hits = 0
        dedup_saved = 0
        cpu_seconds = 0.0
        try:
            for first_stripe, parts in runs:
                payload = concat(parts)
                count = -(-payload.size // chunk_size)
                first_chunk_id = self._next_chunk_id
                self._next_chunk_id += count
                last_length = payload.size - (count - 1) * chunk_size
                holder = stored_size = None
                if self.dedup is not None:
                    ingest = self.dedup.ingest(payload, self.providers)
                    cpu_seconds += ingest.cpu_seconds
                    holder, stored_size = ingest.run, ingest.stored_size
                shipped = holder is None
                if shipped:
                    holder = self.providers.store_run(
                        blob_id, first_chunk_id, payload, chunk_size, stored_size
                    )
                    if self.dedup is not None:
                        self.dedup.register_canonical(ingest, holder)
                else:
                    # Identical content is already stored: share its run.
                    dedup_hits += 1
                    dedup_saved += last_length
                run = StripeRun(
                    first_stripe=first_stripe,
                    blob_id=blob_id,
                    first_chunk_id=first_chunk_id,
                    stripe_length=chunk_size,
                    last_length=last_length,
                    created_by=(blob_id, new_version),
                    stored=holder,
                    physical_length=stored_size,
                )
                updates.append(run)
                if shipped:
                    stored.append(run)
        except Exception:
            self._rollback_batch(stored)
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

    def _rollback_batch(self, stored: List[StripeRun]) -> None:
        """Undo the side effects of a failed (unpublished) ``write_batch``:
        each run it shipped is released whole.  The stripes that shared a run
        which was already stored go with the version that is never published."""
        for run in stored:
            self.release(run.stored, 0, len(run.providers))

    def release(self, run: StoredRun, first: int, stop: int) -> Tuple[int, int]:
        """Drop chunks ``first .. stop - 1`` of ``run`` from the providers
        (:meth:`~repro.blobseer.provider.ProviderManager.release`; snapshot
        collection and the rollback above come through here): a run that
        thereby leaves the store is no longer offered to later writes of the
        same content."""
        freed = self.providers.release(run, first, stop)
        if self.dedup is not None and not run.held:
            self.dedup.index.forget(run)
        return freed

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

    def chunk_ranges(self, blob_id: int, offset: int, size: int, version: int) -> ChunkRanges:
        """The chunks mapped to the stripes the requested window touches."""
        version, size = self._window(blob_id, offset, size, version)
        ranges: ChunkRanges = {}
        if size == 0:
            return ranges
        chunk_size = self.version_manager.get(blob_id).chunk_size
        for run, first, last in self.metadata.extents_in_range(
            blob_id, version, offset // chunk_size, (offset + size - 1) // chunk_size
        ):
            shift = run.first_chunk_id - run.first_stripe
            add_range(ranges.setdefault(run.blob_id, []), first + shift, last + shift + 1)
        return ranges

    def _read_version(self, blob_id: int, version: int, offset: int, size: int) -> ByteSource:
        """The (already checked) window ``[offset, offset + size)`` of a version.

        Walks the runs the window crosses; the stripes of each come back as
        one slice of the stored run's payload (their own, or the one they
        share with the stripe that first shipped their content).  A stripe no
        live provider of its placement holds any more is lost: the read raises
        ``ChunkNotFoundError`` naming its chunk.  Whatever no chunk covers --
        holes, and the tail of a stripe whose chunk is short -- reads as
        zeros.
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
            source = run.stored
            at = first - run.first_stripe
            stop = last - run.first_stripe + 1
            lost = self.providers.live_prefix(source, at, stop)
            if lost < stop:
                key = ChunkKey(source.blob_id, source.first_chunk_id + lost)
                raise ChunkNotFoundError(f"chunk {key} is not stored on any live provider")
            stripe_start = first * chunk_size
            lo = max(cursor, stripe_start)
            hi = min(end, stripe_start + source.span_bytes(at, stop - at))
            if lo < hi:
                if cursor < lo:
                    pieces.append(ZeroBytes(lo - cursor))
                pieces.append(
                    source.payload.slice(at * source.stripe_length + lo - stripe_start, hi - lo)
                )
                cursor = hi
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
