"""Data providers and chunk placement for BlobSeer.

A *data provider* is the storage daemon that BlobSeer runs on every compute
node's local disk: it stores opaque chunks keyed by ``(blob_id, chunk_id)``.
The *provider manager* keeps track of all registered providers and hands out
placement decisions (which providers should store the replicas of a new
chunk) using a least-loaded policy with deterministic tie-breaking, which is
what gives the checkpoint repository its even load distribution.

A COMMIT ships the chunks of a whole run of stripes at once, so the unit of
both layers is the batch: :meth:`ProviderManager.place_many` decides a
sequence of placements over one incrementally maintained index,
:meth:`ProviderManager.store_many` / :meth:`fetch_many` move the chunks with
one bulk call per provider, and the one-chunk entry points are wrappers.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.obs.tracer import TRACER
from repro.util.bytesource import ByteSource
from repro.util.errors import ChunkNotFoundError, StorageError


class ChunkKey(NamedTuple):
    """Globally unique identity of a stored chunk."""

    blob_id: int
    chunk_id: int


@dataclass(frozen=True)
class Chunk:
    """An immutable chunk of BLOB data."""

    key: ChunkKey
    data: ByteSource
    #: bytes the chunk occupies on disk after compression; ``None`` means the
    #: chunk is stored verbatim (``data.size``).  The payload itself is kept
    #: uncompressed so reads stay byte-exact; only the accounting differs.
    stored_size: Optional[int] = None

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def footprint(self) -> int:
        """Physical bytes this chunk occupies on a provider's disk."""
        return self.data.size if self.stored_size is None else self.stored_size


class DataProvider:
    """Chunk storage backed by one node's local disk."""

    def __init__(self, provider_id: str, capacity: int = 10**18):
        if capacity <= 0:
            raise StorageError(f"provider capacity must be positive: {capacity}")
        self.provider_id = provider_id
        self.capacity = capacity
        #: CRC of the provider id: the placement tie-break ranks providers by
        #: it, and it is a pure function of the id.
        self.placement_crc = zlib.crc32(provider_id.encode())
        #: manager backref + slot in its placement index (set by
        #: ProviderManager); usage changes are reported there so placement
        #: never has to walk the providers.
        self._manager: Optional["ProviderManager"] = None
        self._slot = -1
        self._chunks: Dict[ChunkKey, Chunk] = {}
        self._used = 0
        self.alive = True

    # -- capacity -----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._used

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    # -- chunk operations -----------------------------------------------------

    def store(self, chunk: Chunk) -> None:
        self.store_many((chunk,))

    def store_many(self, chunks: Iterable[Chunk]) -> None:
        """Store several chunks; liveness is checked once, room and identity per chunk."""
        if not self.alive:
            raise StorageError(f"provider {self.provider_id} is not alive")
        stored = self._chunks
        try:
            for chunk in chunks:
                if chunk.key in stored:
                    # Chunks are immutable; re-storing the same key is idempotent.
                    continue
                footprint = chunk.footprint
                if footprint > self.capacity - self._used:
                    raise StorageError(
                        f"provider {self.provider_id} is full "
                        f"({footprint} needed, {self.free_bytes} free)"
                    )
                stored[chunk.key] = chunk
                self._used += footprint
        finally:
            self._usage_changed()

    def has(self, key: ChunkKey) -> bool:
        return self.alive and key in self._chunks

    def fetch(self, key: ChunkKey) -> Chunk:
        if not self.alive:
            raise ChunkNotFoundError(f"provider {self.provider_id} is not alive")
        try:
            return self._chunks[key]
        except KeyError:
            raise ChunkNotFoundError(
                f"chunk {key} not stored on provider {self.provider_id}"
            ) from None

    def delete(self, key: ChunkKey) -> bool:
        """Remove a chunk (used by garbage collection). Returns True if present."""
        chunk = self._chunks.pop(key, None)
        if chunk is None:
            return False
        self._used -= chunk.footprint
        self._usage_changed()
        return True

    def keys(self) -> Iterable[ChunkKey]:
        return self._chunks.keys()

    def fail(self) -> None:
        """Simulate a fail-stop crash: all locally stored chunks are lost."""
        self.alive = False
        self._chunks.clear()
        self._used = 0
        if self._manager is not None:
            self._manager._index_stale = True

    def _usage_changed(self) -> None:
        if self._manager is not None:
            self._manager._reindex(self)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<DataProvider {self.provider_id} chunks={len(self._chunks)} "
            f"used={self._used}B alive={self.alive}>"
        )


@dataclass
class PlacementDecision:
    """Where the replicas of one new chunk should be stored."""

    key: ChunkKey
    providers: List[str] = field(default_factory=list)


class ProviderManager:
    """Registry and placement policy for data providers.

    Placement is least-loaded-first over live providers with a deterministic
    round-robin tie-break, which spreads a burst of same-sized chunks (the
    common case when committing a disk snapshot) evenly across providers.
    """

    def __init__(self, replication: int = 1):
        if replication < 1:
            raise StorageError(f"replication factor must be >= 1: {replication}")
        self.replication = replication
        self._providers: Dict[str, DataProvider] = {}
        #: placements made so far: the round-robin position of the tie-break
        self._rr = 0
        #: the placement index (see :meth:`place_many`).  Slot order ==
        #: registration order == dict order.  Rebuilt lazily after a topology
        #: or liveness change (both change the tie-break modulus); usage
        #: changes move one provider between two levels.
        self._index_stale = True
        self._slots: List[DataProvider] = []
        self._live = 0
        #: per slot: indexed usage, and rank ``(crc % live) * len(slots) + slot``
        self._usage: List[int] = []
        self._ranks: List[int] = []
        #: usage level -> ranks of the live providers at that level, sorted;
        #: and the levels themselves, sorted
        self._levels: Dict[int, List[int]] = {}
        self._level_keys: List[int] = []
        #: a lower bound on the free bytes of every live provider, so the
        #: room filter is skipped for chunks that everyone can take
        self._min_free = 0
        #: maps a requested chunk key to the key it is physically stored under
        #: (logical -> canonical alias resolution of the dedup layer); set by
        #: :class:`~repro.blobseer.client.BlobClient`
        self.alias_resolver: Optional[Callable[[ChunkKey], ChunkKey]] = None

    # -- registry -------------------------------------------------------------

    def register(self, provider: DataProvider) -> None:
        if provider.provider_id in self._providers:
            raise StorageError(f"provider {provider.provider_id} already registered")
        self._providers[provider.provider_id] = provider
        provider._manager = self
        self._index_stale = True

    def deregister(self, provider_id: str) -> None:
        provider = self._providers.pop(provider_id, None)
        if provider is not None:
            provider._manager = None
            self._index_stale = True

    def get(self, provider_id: str) -> DataProvider:
        try:
            return self._providers[provider_id]
        except KeyError:
            raise StorageError(f"unknown provider {provider_id}") from None

    @property
    def providers(self) -> List[DataProvider]:
        return list(self._providers.values())

    @property
    def live_providers(self) -> List[DataProvider]:
        return [p for p in self._providers.values() if p.alive]

    @property
    def total_used_bytes(self) -> int:
        return sum(p.used_bytes for p in self._providers.values())

    # -- placement ---------------------------------------------------------------

    def _rebuild_index(self) -> None:
        self._slots = slots = list(self._providers.values())
        live = [p for p in slots if p.alive]
        self._live = modulus = len(live)
        self._usage = [p._used for p in slots]
        self._ranks = [0] * len(slots)
        self._levels = levels = {}
        for slot, provider in enumerate(slots):
            provider._slot = slot
            if provider.alive:
                rank = (provider.placement_crc % modulus) * len(slots) + slot
                self._ranks[slot] = rank
                levels.setdefault(provider._used, []).append(rank)
        for ring in levels.values():
            ring.sort()
        self._level_keys = sorted(levels)
        self._min_free = min((p.capacity - p._used for p in live), default=0)
        self._index_stale = False

    def _reindex(self, provider: DataProvider) -> None:
        """Bring the index in line with a provider whose usage changed."""
        if not self._index_stale:
            self._move(provider._slot, provider._used)

    def _move(self, slot: int, used: int) -> None:
        """Index the live provider in ``slot`` at usage level ``used``."""
        old = self._usage[slot]
        if old == used:
            return
        self._usage[slot] = used
        rank = self._ranks[slot]
        levels = self._levels
        ring = levels[old]
        if len(ring) == 1:
            del levels[old]
            del self._level_keys[bisect_left(self._level_keys, old)]
        else:
            del ring[bisect_left(ring, rank)]
        ring = levels.get(used)
        if ring is None:
            levels[used] = [rank]
            insort(self._level_keys, used)
        else:
            insort(ring, rank)
        free = self._slots[slot].capacity - used
        if free < self._min_free:
            self._min_free = free

    def place_many(self, sizes: Iterable[int]) -> List[Tuple[str, ...]]:
        """Choose providers for a sequence of new chunks, as if each were
        stored before the next is placed.

        Every chunk goes to ``sorted(live_with_room, key=(used, (crc + tie)
        % len(live_with_room), slot))[:replication]``: least-loaded first,
        then a CRC of the provider id (stable across interpreter runs, unlike
        ``hash(str)``) rotated by ``tie``, the number of placements made so
        far.  ``tie`` is part of the deterministic state: it advances once
        per successful placement, not for a chunk nobody has room for.

        Committing one snapshot places hundreds of chunks, so that ranking is
        never evaluated.  Live providers are indexed by usage level; within a
        level they are kept sorted by ``(crc % live, slot)``, and rotating
        that order by ``tie`` is a walk of the sorted ring starting at
        ``(-tie) % live``.  One placement is a bisect into the lowest level
        and a move of the winners to the level ``size`` above: O(log n), not
        O(n).  Only a chunk that some live provider has no room for changes
        the modulus, and is ranked directly.

        The index is left as if every chunk had been stored where it was
        placed; the stores that follow bring the providers in line with it.
        """
        if self._index_stale:
            self._rebuild_index()
        slots = self._slots
        nslots = len(slots)
        usage = self._usage
        ranks = self._ranks
        levels = self._levels
        level_keys = self._level_keys
        live = self._live
        count = min(self.replication, live)
        placements: List[Tuple[str, ...]] = []
        try:
            for size in sizes:
                if size > self._min_free:
                    self._min_free = min(
                        (p.capacity - usage[p._slot] for p in slots if p.alive), default=0
                    )
                if size <= self._min_free and live:
                    pointer = (-self._rr % live) * nslots
                    chosen: List[int] = []
                    for level in level_keys:
                        ring = levels[level]
                        start = bisect_left(ring, pointer)
                        chosen += ring[start : start + count - len(chosen)]
                        if len(chosen) < count:
                            chosen += ring[: min(start, count - len(chosen))]
                        if len(chosen) == count:
                            break
                else:
                    room = [
                        (slot, p)
                        for slot, p in enumerate(slots)
                        if p.alive and p.capacity - usage[slot] >= size
                    ]
                    if not room:
                        raise StorageError("no live data provider has room for the chunk")
                    modulus = len(room)
                    tie = self._rr
                    order = sorted(
                        (usage[slot], (p.placement_crc + tie) % modulus, slot) for slot, p in room
                    )
                    chosen = [ranks[slot] for _used, _rotated, slot in order[: self.replication]]
                self._rr += 1
                providers = []
                for rank in chosen:
                    slot = rank % nslots  # rank = (crc % live) * nslots + slot
                    self._move(slot, usage[slot] + size)
                    providers.append(slots[slot].provider_id)
                placements.append(tuple(providers))
        except BaseException:
            # Nothing of this batch will be stored: forget what it reserved.
            self._index_stale = True
            raise
        return placements

    def place(self, key: ChunkKey, size: int) -> PlacementDecision:
        """Choose ``replication`` distinct live providers for one new chunk."""
        (providers,) = self.place_many((size,))
        self._index_stale = True  # a decision alone stores nothing
        return PlacementDecision(key=key, providers=list(providers))

    # -- chunk transfer ------------------------------------------------------------

    def store_many(self, chunks: Sequence[Chunk]) -> List[Tuple[str, ...]]:
        """Place and store ``chunks`` in order; returns the provider ids of each.

        Capacity is consumed at the stored (possibly compressed) footprint,
        so placement sizes against that, not the logical size.  Each provider
        receives its share in one bulk store.
        """
        sizes = [chunk.footprint for chunk in chunks]
        placements = self.place_many(sizes)
        shares: Dict[str, List[Chunk]] = {}
        for chunk, providers in zip(chunks, placements):
            for provider_id in providers:
                shares.setdefault(provider_id, []).append(chunk)
        try:
            for provider_id, share in shares.items():
                self._providers[provider_id].store_many(share)
        except BaseException:
            self._index_stale = True  # it counts chunks that never arrived
            raise
        if TRACER.enabled:
            for size, providers in zip(sizes, placements):
                TRACER.observe("chunk.stored_bytes", size)
                TRACER.observe("chunk.replicas", len(providers))
        return placements

    def store_replicated(self, chunk: Chunk) -> PlacementDecision:
        """Place and store one chunk."""
        (providers,) = self.store_many((chunk,))
        return PlacementDecision(key=chunk.key, providers=list(providers))

    def fetch_many(
        self, keys: Iterable[ChunkKey], preferred: Iterable[Sequence[str]]
    ) -> List[Chunk]:
        """Fetch each chunk from the first live provider that still has it,
        trying its ``preferred`` providers (where it was placed) first.

        When a dedup layer is active, a key may be a logical alias of a
        canonical chunk that holds the identical content; the alias is
        resolved here so every read path sees the deduplicated store
        transparently.
        """
        if self.alias_resolver is not None:
            keys = map(self.alias_resolver, keys)
        providers = self._providers
        chunks: List[Chunk] = []
        for key, hint in zip(keys, preferred):
            chunk = None
            for provider_id in hint:
                provider = providers.get(provider_id)
                if provider is not None and provider.alive:
                    chunk = provider._chunks.get(key)
                    if chunk is not None:
                        break
            if chunk is None:  # lost or never stored where it was placed: ask everyone
                for provider in providers.values():
                    if provider.alive:
                        chunk = provider._chunks.get(key)
                        if chunk is not None:
                            break
            if chunk is None:
                raise ChunkNotFoundError(f"chunk {key} is not stored on any live provider")
            chunks.append(chunk)
        return chunks

    def fetch_any(self, key: ChunkKey, preferred: Iterable[str] = ()) -> Chunk:
        """Fetch one chunk (see :meth:`fetch_many`)."""
        (chunk,) = self.fetch_many((key,), (tuple(preferred),))
        return chunk

    def locations(self, key: ChunkKey) -> List[str]:
        return [p.provider_id for p in self._providers.values() if p.has(key)]
