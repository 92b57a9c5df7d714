"""Data providers and chunk placement for BlobSeer.

A *data provider* is the storage daemon that BlobSeer runs on every compute
node's local disk.  The *provider manager* keeps track of all registered
providers and hands out placement decisions (which providers should store the
replicas of a new chunk) using a least-loaded policy with deterministic
tie-breaking, which is what gives the checkpoint repository its even load
distribution.

A COMMIT ships a whole run of consecutive stripes at once, and the run is
what both layers store.  :meth:`ProviderManager.store_run` places it with one
:meth:`~ProviderManager.place_many` over an incrementally maintained index,
wraps its payload in one :class:`StoredRun` and hands every chosen provider
its share as two numbers, a chunk count and a byte count.  A provider keeps
the runs it was handed, not their chunks, in one table: *it holds exactly the
chunks the run's placement puts on it*, minus those that were released, which
the run records in an exception set that does not exist until then.  The
stored run is the only address of stored content: a read asks whether the
chunks it wants are still where they were placed
(:meth:`ProviderManager.live_prefix`: per chunk a provider lookup, its
``alive`` flag and its run table, nothing allocated) and slices the payload
once; a chunk no live provider of its placement holds is lost.

Content leaves a live provider one way: :meth:`ProviderManager.release` drops
a range of a run's chunks from every provider that still holds them (snapshot
collection, the rollback of a failed write).  The run counts the chunks each
provider still holds of it, so a run none of whose chunks is left on a
provider leaves that table without a look at its placement, and the payload
goes when the run has left the last one.

The dedup layer adds nothing here: a stripe whose content is already stored
references the :class:`StoredRun` that holds it, so one run may be reached
from many stripes of many versions, and it is released when none of those
that are retained reaches it any more.

A :class:`ChunkKey` names a chunk (in descriptors and error messages).
:class:`Chunk` and the manager's ``place`` / ``store_replicated`` /
``fetch_any`` are one-chunk views on the runs, kept only because the
benchmark's boundary table names them; they leave with those rows.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.obs.tracer import Tracer
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


@dataclass(slots=True, eq=False)
class StoredRun:
    """Consecutive chunks of one BLOB stored by one call: the unit providers keep.

    Chunk ``first_chunk_id + i`` is bytes ``[i * stripe_length, ...)`` of
    ``payload``; every chunk but the last is ``stripe_length`` bytes long.
    One object is shared by all the providers ``placements`` names: provider
    ``p`` holds chunk ``i`` iff the run is in ``p``'s table, ``p`` is in
    ``placements[i]`` and ``(i, p)`` is not in ``dropped``.
    """

    blob_id: int
    first_chunk_id: int
    #: per chunk, the ids of the providers it was stored on: the
    #: ``place_many`` result, which the metadata's ``StripeRun`` shares
    placements: Sequence[Tuple[str, ...]]
    #: ``None`` once the run has left the last provider's table
    payload: Optional[ByteSource]
    stripe_length: int
    last_length: int
    #: see :attr:`Chunk.stored_size`; holds for every chunk of the run
    stored_size: Optional[int] = None
    #: ``(index, provider id)`` of the chunks released from providers that
    #: still hold others of the run; ``None`` until the first one
    dropped: Optional[Set[Tuple[int, str]]] = None
    #: per provider that has the run in its table, how many of its chunks
    #: that provider still holds
    held: Dict[str, int] = field(default_factory=dict)
    #: what those tables file it under: ``(blob id, first chunk id, chunks)``,
    #: one tuple for all of them.  The count is part of it so that a chunk
    #: stored alone never collides with a longer run that starts at its id.
    table_key: Tuple[int, int, int] = field(init=False)

    def __post_init__(self) -> None:
        self.table_key = (self.blob_id, self.first_chunk_id, len(self.placements))

    def span_bytes(self, first: int, count: int) -> int:
        """Bytes of content chunks ``first .. first + count - 1`` hold."""
        total = count * self.stripe_length
        if first + count == len(self.placements):
            total += self.last_length - self.stripe_length
        return total

    def chunk(self, index: int) -> Chunk:
        """Chunk ``index`` on its own, cut out of the payload."""
        return Chunk(
            ChunkKey(self.blob_id, self.first_chunk_id + index),
            self.payload.slice(index * self.stripe_length, self.span_bytes(index, 1)),
            self.stored_size,
        )


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
        #: the run table, by :attr:`StoredRun.table_key`: every run this
        #: provider holds a chunk of (which chunks is what the run says)
        self._runs: Dict[Tuple[int, int, int], StoredRun] = {}
        self._used = 0
        self._count = 0
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
        return self._count

    # -- chunk operations -----------------------------------------------------

    def _accept(self, run: StoredRun, chunks: int, nbytes: int) -> None:
        """Take this provider's share of a run: the ``chunks`` chunks (of
        ``nbytes`` stored bytes in all) that ``run.placements`` puts here,
        none of which it holds yet."""
        if not self.alive:
            raise StorageError(f"provider {self.provider_id} is not alive")
        if nbytes > self.capacity - self._used:
            raise StorageError(
                f"provider {self.provider_id} is full ({nbytes} needed, {self.free_bytes} free)"
            )
        self._runs[run.table_key] = run
        run.held[self.provider_id] = chunks
        self._used += nbytes
        self._count += chunks

    def _forget(self, run: StoredRun) -> None:
        """Take a run this provider holds nothing of any more out of the
        table; what the run keeps goes with the last table."""
        del self._runs[run.table_key]
        del run.held[self.provider_id]
        if not run.held:
            run.payload = run.dropped = None

    def _release(self, run: StoredRun, indices: Sequence[int]) -> int:
        """Let go of the chunks of ``run`` at ``indices`` (ascending), all of
        which this provider holds: the bytes that frees."""
        me = self.provider_id
        left = run.held[me] - len(indices)
        if left:
            run.held[me] = left
            if run.dropped is None:
                run.dropped = set()
            run.dropped.update((index, me) for index in indices)
        else:
            self._forget(run)
        if run.stored_size is not None:
            freed = len(indices) * run.stored_size
        else:
            freed = len(indices) * run.stripe_length
            if indices[-1] == len(run.placements) - 1:
                freed += run.last_length - run.stripe_length
        self._used -= freed
        self._count -= len(indices)
        self._usage_changed()
        return freed

    def _find(self, key: ChunkKey) -> Optional[StoredRun]:
        """The run this provider holds chunk ``key`` in: a look at every run
        of the table (only :meth:`ProviderManager.fetch_any` asks)."""
        blob_id, chunk_id = key
        me = self.provider_id
        for (blob, first, count), run in self._runs.items():
            if blob == blob_id and first <= chunk_id < first + count:
                index = chunk_id - first
                if me in run.placements[index] and (index, me) not in (run.dropped or ()):
                    return run
        return None

    def fail(self) -> None:
        """Simulate a fail-stop crash: all locally stored chunks are lost."""
        self.alive = False
        for run in list(self._runs.values()):
            self._forget(run)
        self._used = 0
        self._count = 0
        if self._manager is not None:
            self._manager._index_stale = True

    def _usage_changed(self) -> None:
        if self._manager is not None:
            self._manager._reindex(self)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<DataProvider {self.provider_id} chunks={self._count} "
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

    def __init__(self, replication: int = 1, tracer: Optional[Tracer] = None):
        if replication < 1:
            raise StorageError(f"replication factor must be >= 1: {replication}")
        self.replication = replication
        #: the owning cloud's tracer (its repository hands it over), or None
        self._tracer = tracer
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
        """Choose ``replication`` distinct live providers for one new chunk
        (:meth:`place_many` of one, reserving nothing).  Named by the
        benchmark's boundary table; leaves with that row."""
        (providers,) = self.place_many((size,))
        self._index_stale = True  # a decision alone stores nothing
        return PlacementDecision(key=key, providers=list(providers))

    # -- chunk transfer ------------------------------------------------------------

    def store_run(
        self,
        blob_id: int,
        first_chunk_id: int,
        payload: ByteSource,
        stripe_length: int,
        stored_size: Optional[int] = None,
    ) -> StoredRun:
        """Place and store ``payload`` as one run of new consecutive chunks,
        ``stripe_length`` bytes each (the last one what is left).

        The chunk ids are fresh (their client allocated them), so no provider
        holds any of them yet.  Capacity is consumed at the stored (possibly
        compressed) footprint, so placement sizes against that, not the
        logical size.  Each provider the placement names is handed the run
        and what its share of it adds up to.
        """
        if payload.size == 0:
            raise StorageError("a stored run holds at least one byte")
        count = -(-payload.size // stripe_length)
        last_length = payload.size - (count - 1) * stripe_length
        if stored_size is None:
            size, last = stripe_length, last_length
        else:
            size = last = stored_size
        sizes = [size] * (count - 1) + [last]
        placements = self.place_many(sizes)
        run = StoredRun(
            blob_id, first_chunk_id, placements, payload, stripe_length, last_length, stored_size
        )
        try:
            for provider_id, chunks in Counter(chain.from_iterable(placements)).items():
                nbytes = chunks * size + (last - size if provider_id in placements[-1] else 0)
                self._providers[provider_id]._accept(run, chunks, nbytes)
        except BaseException:
            self._index_stale = True  # it counts chunks that never arrived
            raise
        tracer = self._tracer
        if tracer is not None:
            for size, providers in zip(sizes, placements):
                tracer.observe("chunk.stored_bytes", size)
                tracer.observe("chunk.replicas", len(providers))
        return run

    def store_replicated(self, chunk: Chunk) -> PlacementDecision:
        """Place and store one chunk under a fresh key, as a run of one
        (:meth:`store_run`).  Named by the benchmark's boundary table; leaves
        with that row."""
        blob_id, chunk_id = chunk.key
        run = self.store_run(blob_id, chunk_id, chunk.data, chunk.size, chunk.stored_size)
        return PlacementDecision(key=chunk.key, providers=list(run.placements[0]))

    def live_prefix(self, run: StoredRun, first: int, stop: int) -> int:
        """How far chunks ``first .. stop - 1`` of ``run`` can be read from
        where they were placed: the index of the first one that no live
        provider of its placement holds any more (``stop`` if none)."""
        providers = self._providers
        placements = run.placements
        dropped = run.dropped
        table_key = run.table_key
        for index in range(first, stop):
            for provider_id in placements[index]:
                provider = providers.get(provider_id)
                if (
                    provider is not None
                    and provider.alive
                    and provider._runs.get(table_key) is run
                    and (dropped is None or (index, provider_id) not in dropped)
                ):
                    break
            else:
                return index
        return stop

    def release(self, run: StoredRun, first: int, stop: int) -> Tuple[int, int]:
        """Drop chunks ``first .. stop - 1`` of ``run`` from every provider
        that still holds them (see :meth:`live_prefix`): how many replicas
        that dropped and the stored bytes it freed.  A chunk that is gone
        already is passed over, so releasing twice is releasing once."""
        providers = self._providers
        shares: Dict[str, List[int]] = {}  # per holder, the chunks of the range it holds
        for provider_id in run.held:
            provider = providers.get(provider_id)
            if provider is not None and provider.alive and provider._runs.get(run.table_key) is run:
                shares[provider_id] = []
        dropped = run.dropped
        placements = run.placements
        for index in range(first, stop):
            for provider_id in placements[index]:
                if provider_id in shares and (
                    dropped is None or (index, provider_id) not in dropped
                ):
                    shares[provider_id].append(index)
        chunks = nbytes = 0
        for provider_id, indices in shares.items():
            if indices:
                chunks += len(indices)
                nbytes += providers[provider_id]._release(run, indices)
        return chunks, nbytes

    def fetch_any(self, key: ChunkKey, preferred: Iterable[str] = ()) -> Chunk:
        """Chunk ``key``, cut out of the run the first live provider that holds
        it keeps -- its ``preferred`` providers (where it was placed), then
        everyone.  Named by the benchmark's boundary table; leaves with that
        row."""
        providers = self._providers
        for provider in chain(map(providers.get, preferred), providers.values()):
            if provider is not None and provider.alive:
                run = provider._find(key)
                if run is not None:
                    return run.chunk(key.chunk_id - run.first_chunk_id)
        raise ChunkNotFoundError(f"chunk {key} is not stored on any live provider")
