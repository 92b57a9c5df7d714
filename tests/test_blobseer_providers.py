"""The provider layer of BlobSeer against a per-chunk oracle.

Arbitrary sequences of the operations that reach a data provider -- batched
client writes (aligned, unaligned, overlapping, short last stripe), one-chunk
stores through a provider or the manager, deletes, releases of a range of a
stored run, fail-stop crashes and deregistrations -- are replayed on a
test-local model that keeps one ``{key: bytes}`` dict per provider (the
put/get round trip of the blob-store suites in ``SNIPPETS.md``, generalised).
After every operation each chunk ever written must be exactly where, what and
as large as the model says, through every one-chunk view, and every published
version must read back as the ``bytearray`` it was built from -- or fail
naming the first lost chunk.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blobseer import BlobClient, Chunk, ChunkKey, DataProvider, ProviderManager
from repro.util import LiteralBytes, SyntheticBytes
from repro.util.errors import ChunkNotFoundError, StorageError

CHUNK = 8
#: blob id of hand-made chunks: no client ever allocates it
FOREIGN_BLOB = 99


class OracleProvider:
    """One provider as the per-chunk store keeps it: a dict of chunks."""

    def __init__(self, provider_id, capacity):
        self.provider_id = provider_id
        self.capacity = capacity
        self.alive = True
        self.registered = True
        self.chunks = {}  # key -> (bytes, footprint)

    @property
    def used(self):
        return sum(footprint for _data, footprint in self.chunks.values())

    def store(self, key, data, footprint):
        if not self.alive:
            raise StorageError("not alive")
        if key in self.chunks:
            return  # chunks are immutable: re-storing a held key changes nothing
        if footprint > self.capacity - self.used:
            raise StorageError("full")
        self.chunks[key] = (data, footprint)

    def delete(self, key):
        return self.chunks.pop(key, None) is not None

    def fail(self):
        self.alive = False
        self.chunks.clear()

    def has(self, key):
        return self.alive and key in self.chunks


class Harness:
    """The store under test and its model, advanced in lock step."""

    def __init__(self, capacities, replication):
        self.manager = ProviderManager(replication=replication)
        self.providers = []  # every provider ever registered, registration order
        self.oracle = []
        for index, capacity in enumerate(capacities):
            provider = DataProvider(f"node-{index}", capacity=capacity)
            self.manager.register(provider)
            self.providers.append(provider)
            self.oracle.append(OracleProvider(provider.provider_id, capacity))
        self.client = BlobClient(providers=self.manager, default_chunk_size=CHUNK)
        self.blobs = [self.client.create_blob()]
        #: (blob, version) -> content, for every published version
        self.versions = {(self.blobs[0], 0): b""}
        #: key -> (bytes, stored_size) of every chunk ever written
        self.content = {}
        #: key -> provider ids it was placed on
        self.placed = {}
        self.foreign_ids = 0
        #: every run a write stored, and the (oracle index, key) replicas that are
        #: still where such a run put them -- what ``release`` lets go of (a copy
        #: stored by hand afterwards is a run of its own)
        self.stored = []
        self.original = set()

    def model_of(self, provider_id):
        """The registered provider of that id (a deregistered one may share it)."""
        return next(o for o in self.oracle if o.registered and o.provider_id == provider_id)

    # -- operations -----------------------------------------------------------------------

    def write(self, blob_pick, pieces):
        blob = self.blobs[blob_pick % len(self.blobs)]
        base_version = self.client.latest_version(blob)
        base = self.versions[(blob, base_version)]
        model = bytearray(base)
        batch = []
        for offset, length, seed, synthetic in pieces:
            if synthetic:
                source = SyntheticBytes(seed, length)
            else:
                source = LiteralBytes(bytes((seed + 7 * i) % 251 for i in range(length)))
            batch.append((offset, source))
            if length:
                if offset + length > len(model):
                    model.extend(bytes(offset + length - len(model)))
                model[offset : offset + length] = source.read()
        try:
            result = self.client.write_batch(blob, batch)
        except ChunkNotFoundError:
            # an unaligned piece needs the stripe it lands in: some chunk of
            # the base version is gone
            assert self.expected_read(blob, base_version, 0, len(base))[1] is not None
            assert self.client.latest_version(blob) == base_version
            return
        except StorageError:
            # nobody has room: the batch leaves nothing behind (``check`` holds the
            # store to the untouched model)
            assert self.client.latest_version(blob) == base_version
            return
        version = result.version
        assert version == base_version + 1 and result.record.size == len(model)
        self.versions[(blob, version)] = bytes(model)

        # which stripes the batch stores, and how long each chunk is
        touched = {}
        for offset, length, _seed, _synthetic in pieces:
            if length == 0:
                continue
            for stripe in range(offset // CHUNK, (offset + length - 1) // CHUNK + 1):
                end = min(offset + length, (stripe + 1) * CHUNK) - stripe * CHUNK
                touched[stripe] = max(touched.get(stripe, 0), end)
        for stripe in touched:
            kept = min(CHUNK, max(0, len(base) - stripe * CHUNK))
            touched[stripe] = max(touched[stripe], kept)
        descriptors = [
            run.descriptor(stripe)
            for run in result.runs
            for stripe in range(run.first_stripe, run.last_stripe + 1)
        ]
        assert {d.stripe_index: d.length for d in descriptors} == touched
        assert result.chunk_count == len(descriptors) == len(result.chunks)
        assert result.logical_bytes == result.bytes_written == sum(touched.values())
        # runs are maximal: consecutive stripes, all full but the last, and two
        # runs that touch could not have been one
        runs = sorted(result.runs, key=lambda run: run.first_stripe)
        for run in runs:
            lengths = [touched[s] for s in range(run.first_stripe, run.last_stripe + 1)]
            assert all(length == CHUNK for length in lengths[:-1])
            assert run.stripe_length == CHUNK and run.last_length == lengths[-1]
        for before_run, after_run in zip(runs, runs[1:]):
            assert after_run.first_stripe > before_run.last_stripe
            if after_run.first_stripe == before_run.last_stripe + 1:
                assert before_run.last_length < CHUNK

        shipped = {}
        for desc in descriptors:
            start = desc.stripe_index * CHUNK
            data = bytes(model[start : start + desc.length])
            assert desc.key not in self.content  # chunk ids are never reused
            self.content[desc.key] = (data, None)
            self.placed[desc.key] = desc.providers
            assert len(set(desc.providers)) == len(desc.providers) >= 1
            for provider_id in desc.providers:
                self.model_of(provider_id).store(desc.key, data, desc.length)
                self.original.add((self.oracle.index(self.model_of(provider_id)), desc.key))
                shipped[provider_id] = shipped.get(provider_id, 0) + desc.length
        assert result.provider_bytes == shipped
        self.stored += [run.stored for run in result.runs]

    def clone(self, blob_pick):
        blob = self.blobs[blob_pick % len(self.blobs)]
        version = self.client.latest_version(blob)
        clone = self.client.clone(blob)
        self.blobs.append(clone)
        self.versions[(clone, 0)] = self.versions[(blob, version)]

    def chunk_for(self, key_pick, fresh):
        """A chunk to store by hand: a new foreign one, or one written before
        (same key, same content -- chunks are immutable)."""
        if fresh or not self.content:
            self.foreign_ids += 1
            key = ChunkKey(FOREIGN_BLOB, self.foreign_ids)
            data = bytes((key_pick + i) % 256 for i in range(1 + key_pick % 11))
            stored_size = None if key_pick % 3 else 1 + key_pick % 5
            self.content[key] = (data, stored_size)
        else:
            key = sorted(self.content)[key_pick % len(self.content)]
            data, stored_size = self.content[key]
        return Chunk(key, LiteralBytes(data), stored_size)

    def store(self, provider_pick, key_pick, fresh):
        index = provider_pick % len(self.providers)
        chunk = self.chunk_for(key_pick, fresh)
        data = chunk.data.read()
        try:
            self.oracle[index].store(chunk.key, data, chunk.footprint)
        except StorageError:
            with pytest.raises(StorageError):
                self.providers[index].store(chunk)
        else:
            self.providers[index].store(chunk)

    def replicate(self, key_pick, fresh):
        chunk = self.chunk_for(key_pick, fresh)
        try:
            decision = self.manager.store_replicated(chunk)
        except StorageError:
            return  # no live provider has room: nothing stored (checked against the model)
        assert decision.key == chunk.key
        assert len(set(decision.providers)) == len(decision.providers) >= 1
        self.placed.setdefault(chunk.key, tuple(decision.providers))
        for provider_id in decision.providers:
            self.model_of(provider_id).store(chunk.key, chunk.data.read(), chunk.footprint)

    def delete(self, provider_pick, key_pick):
        if not self.content:
            return
        index = provider_pick % len(self.providers)
        key = sorted(self.content)[key_pick % len(self.content)]
        _data, footprint = self.oracle[index].chunks.get(key, (None, None))
        assert self.providers[index].delete(key) == footprint  # the bytes freed, or None
        self.oracle[index].delete(key)
        self.original.discard((index, key))

    def release(self, run_pick, first_pick, count_pick):
        """Chunks ``first .. stop - 1`` of a stored run leave every registered
        provider that still holds them as part of that run; a second call finds
        nothing."""
        if not self.stored:
            return
        run = self.stored[run_pick % len(self.stored)]
        first = first_pick % len(run.placements)
        stop = first + 1 + count_pick % (len(run.placements) - first)
        chunks = nbytes = 0
        for chunk_id in range(run.first_chunk_id + first, run.first_chunk_id + stop):
            key = ChunkKey(run.blob_id, chunk_id)
            for index, model in enumerate(self.oracle):
                if model.registered and (index, key) in self.original:
                    self.original.discard((index, key))
                    chunks += 1
                    nbytes += model.chunks[key][1]
                    model.delete(key)
        assert self.manager.release(run, first, stop) == (chunks, nbytes)
        assert self.manager.release(run, first, stop) == (0, 0)

    def fail(self, provider_pick):
        index = provider_pick % len(self.providers)
        self.providers[index].fail()
        self.oracle[index].fail()
        self.original = {pair for pair in self.original if pair[0] != index}

    def deregister(self, provider_pick):
        index = provider_pick % len(self.providers)
        if self.oracle[index].registered:
            self.manager.deregister(self.providers[index].provider_id)
            self.oracle[index].registered = False

    def replace(self, provider_pick):
        """Register an empty provider under the id of a deregistered one: it
        holds nothing of what was placed on that id."""
        index = provider_pick % len(self.providers)
        old = self.oracle[index]
        if any(o.registered and o.provider_id == old.provider_id for o in self.oracle):
            return
        provider = DataProvider(old.provider_id, capacity=old.capacity)
        self.manager.register(provider)
        self.providers.append(provider)
        self.oracle.append(OracleProvider(old.provider_id, old.capacity))

    # -- the model's predictions ---------------------------------------------------------------

    def holders(self, key):
        """Registered providers a reader can get ``key`` from, registration order."""
        return [o.provider_id for o in self.oracle if o.registered and o.has(key)]

    def expected_read(self, blob, version, offset, size):
        """``(bytes, None)``, or ``(None, first lost key)`` for a window of a version."""
        if size == 0:
            return b"", None
        last = (offset + size - 1) // CHUNK
        for desc in self.client.metadata.descriptors_in_range(blob, version, offset // CHUNK, last):
            if not self.holders(desc.key):
                return None, desc.key
        return self.versions[(blob, version)][offset : offset + size], None

    def check_read(self, blob, version, offset, size):
        expected, lost = self.expected_read(blob, version, offset, size)
        if lost is None:
            assert self.client.read(blob, offset, size, version=version).read() == expected
        else:
            with pytest.raises(ChunkNotFoundError) as raised:
                self.client.read(blob, offset, size, version=version)
            assert str(raised.value) == f"chunk {lost} is not stored on any live provider"

    def read(self, blob_pick, version_pick, offset_pick, size_pick):
        blob = self.blobs[blob_pick % len(self.blobs)]
        version = version_pick % (self.client.latest_version(blob) + 1)
        total = len(self.versions[(blob, version)])
        offset = offset_pick % (total + 1)
        self.check_read(blob, version, offset, size_pick % (total - offset + 1))

    # -- the whole state, after every operation ----------------------------------------------

    def check(self):
        for provider, model in zip(self.providers, self.oracle):
            assert provider.alive == model.alive
            assert provider.chunk_count == len(model.chunks)
            assert provider.used_bytes == model.used
            assert provider.free_bytes == model.capacity - model.used
        assert self.manager.total_used_bytes == sum(o.used for o in self.oracle if o.registered)
        # a table names exactly the runs its provider still holds a chunk of, and a run
        # keeps its payload exactly as long as some table names it
        tables = [provider._runs for provider in self.providers]
        for provider, table in zip(self.providers, tables):
            held = {key: 0 for key in table}
            for key in self.content:  # every chunk ever written, each a has() below
                if provider._find(key) is not None:
                    held[provider._find(key).table_key] += 1
            assert all(held.values()) and sum(held.values()) == provider.chunk_count
            assert held == {key: run.held[provider.provider_id] for key, run in table.items()}
            assert provider._long == sum(count > 1 for _blob, _first, count in table)
            for key, run in table.items():
                assert run.table_key == key and run.payload is not None
                assert len(run.held) == sum(other.get(key) is run for other in tables)
        for key, (data, stored_size) in self.content.items():
            footprint = len(data) if stored_size is None else stored_size
            for provider, model in zip(self.providers, self.oracle):
                assert provider.has(key) == model.has(key)
                if model.has(key):
                    chunk = provider.fetch(key)
                    assert chunk.key == key and chunk.data.read() == data
                    assert (chunk.size, chunk.footprint) == (len(data), footprint)
                else:
                    with pytest.raises(ChunkNotFoundError):
                        provider.fetch(key)
            holders = self.holders(key)
            assert self.manager.locations(key) == holders
            for preferred in ((), self.placed.get(key, ())):
                if holders:
                    chunk = self.manager.fetch_any(key, preferred=preferred)
                    assert chunk.key == key and chunk.data.read() == data
                    assert chunk.footprint == footprint
                else:
                    with pytest.raises(ChunkNotFoundError) as raised:
                        self.manager.fetch_any(key, preferred=preferred)
                    assert str(raised.value) == f"chunk {key} is not stored on any live provider"
        for (blob, version), data in self.versions.items():
            self.check_read(blob, version, 0, len(data))


PICK = st.integers(0, 10**6)
PIECE = st.one_of(
    # whole stripes, aligned
    st.tuples(
        st.integers(0, 12).map(lambda s: s * CHUNK),
        st.integers(0, 9).map(lambda n: n * CHUNK),
        PICK,
        st.booleans(),
    ),
    # anything: unaligned starts, short last stripes, windows inside one stripe
    st.tuples(st.integers(0, 100), st.integers(0, 40), PICK, st.booleans()),
)
OPERATION = st.one_of(
    st.tuples(st.just("write"), PICK, st.lists(PIECE, min_size=1, max_size=4)),
    st.tuples(st.just("write"), PICK, st.lists(PIECE, min_size=1, max_size=4)),
    st.tuples(st.just("clone"), PICK),
    st.tuples(st.just("store"), PICK, PICK, st.booleans()),
    st.tuples(st.just("replicate"), PICK, st.booleans()),
    st.tuples(st.just("delete"), PICK, PICK),
    st.tuples(st.just("release"), PICK, PICK, PICK),
    st.tuples(st.just("fail"), PICK),
    st.tuples(st.just("deregister"), PICK),
    st.tuples(st.just("replace"), PICK),
    st.tuples(st.just("read"), PICK, PICK, PICK, PICK),
)


@settings(max_examples=250, deadline=None)
@given(
    capacities=st.lists(st.sampled_from([24, 64, 400, 10**9]), min_size=1, max_size=8),
    replication=st.integers(1, 3),
    operations=st.lists(OPERATION, min_size=1, max_size=20),
)
def test_provider_layer_matches_the_per_chunk_oracle(capacities, replication, operations):
    harness = Harness(capacities, replication)
    for name, *args in operations:
        getattr(harness, name)(*args)
        harness.check()


def test_full_provider_rolls_a_batch_back_to_nothing():
    """The oracle run's "no room" case, pinned: two runs, the second overflows."""
    harness = Harness([24, 24], replication=1)
    harness.write(0, [(0, 2 * CHUNK, 1, False)])
    harness.check()
    used = [p.used_bytes for p in harness.providers]
    tie = harness.manager._rr
    # stripes 4..5 fit (2 of the 4 free slots); stripes 8..10 need 3 more
    harness.write(0, [(4 * CHUNK, 2 * CHUNK, 2, False), (8 * CHUNK, 3 * CHUNK, 3, True)])
    harness.check()
    assert [p.used_bytes for p in harness.providers] == used
    assert harness.client.latest_version(harness.blobs[0]) == 1
    assert harness.manager._rr == tie + 2 + 2  # the placements that still found room
    harness.write(0, [(4 * CHUNK, 4 * CHUNK, 4, False)])  # what was reserved is free again
    harness.check()
    assert sum(p.used_bytes for p in harness.providers) == 48


def test_lost_chunk_is_served_by_any_live_holder():
    """A chunk that is gone from where it was placed is read from whoever has it."""
    harness = Harness([10**9] * 3, replication=1)
    harness.write(0, [(0, 6 * CHUNK, 5, False)])  # two stripes on each provider
    key = ChunkKey(harness.blobs[0], 3)
    (placed,) = harness.placed[key]
    spare = next(i for i, p in enumerate(harness.providers) if p.provider_id != placed)
    data, _stored = harness.content[key]
    harness.providers[spare].store(Chunk(key, LiteralBytes(data)))
    harness.oracle[spare].store(key, data, len(data))
    harness.manager.get(placed).fail()
    harness.model_of(placed).fail()
    harness.check()
    # the stripes that were only on the failed provider are named, first one first
    expected, lost = harness.expected_read(harness.blobs[0], 1, 0, 6 * CHUNK)
    assert expected is None and lost != key
    assert harness.client.read(harness.blobs[0], 2 * CHUNK, CHUNK).read() == data


def test_restoring_a_held_chunk_changes_nothing():
    """Through a provider or the manager, a chunk that is already there is kept."""
    harness = Harness([10**9] * 2, replication=2)
    harness.write(0, [(0, 3 * CHUNK, 1, False)])
    for pick in range(3):
        harness.replicate(pick, fresh=False)
        harness.store(pick, pick, fresh=False)
        harness.check()
    assert harness.manager.total_used_bytes == 2 * 3 * CHUNK


def test_release_passes_over_what_is_not_registered_alive_and_holding_the_run():
    """The oracle run's rarest sequence, pinned: a run on four providers of which
    one is deregistered and replaced by an empty one under its id and one has
    failed; a release drops what the other two hold, twice over nothing more."""
    harness = Harness([10**9] * 4, replication=1)
    harness.write(0, [(0, 8 * CHUNK, 1, False)])  # two stripes on each provider
    (run,) = harness.stored
    harness.deregister(0)
    harness.replace(0)
    harness.fail(1)
    harness.check()
    harness.release(0, 0, 2)  # stripes 0..2
    harness.check()
    harness.release(0, 0, 7)  # the whole run: what is left of it on two providers
    harness.check()
    assert len(run.held) == 1 and run.payload is not None  # the deregistered one keeps its two
    assert harness.manager.total_used_bytes == 0


# -- what the provider layer keeps: runs, not chunks -----------------------------------------


def test_commit_and_read_of_a_run_allocate_per_run_not_per_stripe():
    """800 aligned stripes over 120 providers: one stored run shared by all,
    a read that is one slice of the committed payload, and next to nothing
    per stripe left for the cyclic collector to walk."""
    import gc

    stripes, chunk = 800, 64
    manager = ProviderManager()
    for index in range(120):
        manager.register(DataProvider(f"node-{index}"))
    client = BlobClient(providers=manager, default_chunk_size=chunk)
    # what is paid once (every provider's run table turning GC-tracked with its
    # first entry) is paid by a first commit
    client.read(client.create_blob(initial_data=SyntheticBytes("warm-up", 120 * chunk)))
    blob = client.create_blob()
    payload = SyntheticBytes("commit", stripes * chunk)
    gc.collect()
    before = len(gc.get_objects())
    result = client.write_batch(blob, [(0, payload)])
    whole = client.read(blob)
    window = client.read(blob, 10 * chunk + 3, 100 * chunk)
    gc.collect()
    assert (len(gc.get_objects()) - before) / stripes < 0.25  # the per-chunk store: 3.2

    assert whole is payload  # not a concat of 800 slices: the payload itself
    assert isinstance(window, SyntheticBytes)
    assert window.fingerprint() == payload.slice(10 * chunk + 3, 100 * chunk).fingerprint()
    (run,) = result.runs
    tables = [list(provider._runs.values()) for provider in manager.providers]
    assert all(table[1:] == [run.stored] for table in tables)  # after the warm-up's run
    assert run.stored.placements is run.providers and run.stored.dropped is None
    assert len(run.stored.held) == 120
    assert sum(p.chunk_count for p in manager.providers) == 120 + stripes
    assert sum(p.used_bytes for p in manager.providers) == (120 + stripes) * chunk


def test_deleting_one_chunk_leaves_the_rest_of_its_run_readable():
    manager = ProviderManager()
    for index in range(3):
        manager.register(DataProvider(f"node-{index}"))
    client = BlobClient(providers=manager, default_chunk_size=CHUNK)
    blob = client.create_blob()
    data = bytes(range(12 * CHUNK))
    (run,) = client.write(blob, 0, LiteralBytes(data)).runs
    key = ChunkKey(blob, run.first_chunk_id + 5)
    (holder,) = run.providers[5]
    assert manager.get(holder).delete(key) == CHUNK
    assert run.stored.dropped == {(5, holder)}
    assert manager.get(holder).chunk_count == 3 and manager.locations(key) == []
    assert client.read(blob, 0, 5 * CHUNK).read() == data[: 5 * CHUNK]
    assert client.read(blob, 6 * CHUNK, 6 * CHUNK).read() == data[6 * CHUNK :]
    with pytest.raises(ChunkNotFoundError) as raised:
        client.read(blob)
    assert str(raised.value) == f"chunk {key} is not stored on any live provider"
    # stored again, anywhere, it is served again
    manager.get(run.providers[0][0]).store(Chunk(key, LiteralBytes(data[5 * CHUNK : 6 * CHUNK])))
    assert client.read(blob).read() == data


def test_a_run_leaves_a_table_with_the_last_chunk_held_there():
    """Deleting frees: a provider forgets a run with its last chunk of it, and the
    payload goes when the last provider has."""
    manager = ProviderManager(replication=2)
    for index in range(3):
        manager.register(DataProvider(f"node-{index}"))
    client = BlobClient(providers=manager, default_chunk_size=CHUNK)
    blob = client.create_blob()
    (run,) = client.write(blob, 0, LiteralBytes(bytes(range(7 * CHUNK)))).runs
    stored = run.stored
    assert len(stored.held) == 3 and stored.dropped is None
    replicas = [
        (manager.get(provider_id), key)
        for key, placed in zip(run.keys(run.first_stripe, run.last_stripe), run.providers)
        for provider_id in placed
    ]
    for done, (provider, key) in enumerate(replicas, start=1):
        assert provider.delete(key) == CHUNK
        left = {p.provider_id for p, _key in replicas[done:]}
        assert {p.provider_id for p in manager.providers if stored in p._runs.values()} == left
        assert len(stored.held) == len(left) and (stored.payload is None) == (not left)
    assert stored.dropped is None  # the exceptions went with the payload
    assert manager.total_used_bytes == 0 and all(not p._runs for p in manager.providers)
    with pytest.raises(ChunkNotFoundError):
        client.read(blob)


def test_a_chunk_stored_alone_at_the_first_id_of_a_longer_run_is_its_own_run():
    manager = ProviderManager()
    for index in range(2):
        manager.register(DataProvider(f"node-{index}"))
    client = BlobClient(providers=manager, default_chunk_size=CHUNK)
    blob = client.create_blob()
    data = bytes(range(4 * CHUNK))
    (run,) = client.write(blob, 0, LiteralBytes(data)).runs
    first = ChunkKey(blob, run.first_chunk_id)
    (placed,) = run.providers[0]
    other = next(p for p in manager.providers if p.provider_id != placed)
    assert not other.has(first) and run.stored in other._runs.values()
    other.store(Chunk(first, LiteralBytes(data[:CHUNK])))
    assert other.chunk_count == 3 and len(other._runs) == 2
    manager.get(placed).fail()
    assert client.read(blob, 0, CHUNK).read() == data[:CHUNK]
    assert other.delete(first) == CHUNK and other.chunk_count == 2
    assert run.stored in other._runs.values() and not other.has(first)


def test_rollback_and_gc_leave_nothing_for_the_collector():
    """A rolled-back batch and a collected version are gone from every table,
    and take their objects with them."""
    import gc
    from types import SimpleNamespace

    from repro.core.gc import SnapshotGarbageCollector

    manager = ProviderManager(replication=2)
    for index in range(4):
        manager.register(DataProvider(f"node-{index}", capacity=200 * CHUNK))
    client = BlobClient(providers=manager, default_chunk_size=CHUNK)
    blob = client.create_blob(initial_data=SyntheticBytes("v1", 100 * CHUNK))
    stored_v1 = [run.stored for run, _f, _l in client.metadata.extents_in_range(blob, 1, 0, 99)]

    def tracked():
        gc.collect()
        return len(gc.get_objects())

    def overflow():  # 100 stripes fit, the 300 after the gap do not
        with pytest.raises(StorageError, match="no live data provider has room"):
            fits, overflows = SyntheticBytes("a", 100 * CHUNK), SyntheticBytes("b", 300 * CHUNK)
            client.write_batch(blob, [(0, fits), (200 * CHUNK, overflows)])

    overflow()  # once unmeasured: what a first failure caches (pytest's compiled pattern)
    tables = [dict(provider._runs) for provider in manager.providers]
    before = tracked()
    overflow()
    assert [provider._runs for provider in manager.providers] == tables
    assert tracked() <= before
    assert manager.total_used_bytes == 2 * 100 * CHUNK

    client.write_batch(blob, [(0, SyntheticBytes("v2", 100 * CHUNK))])
    before = tracked()
    report = SnapshotGarbageCollector(SimpleNamespace(client=client)).collect()
    assert report.deleted_chunks == 2 * 100 and report.reclaimed_bytes == 2 * 100 * CHUNK
    assert tracked() < before
    for stored in stored_v1:
        assert len(stored.held) == 0 and stored.payload is None
        assert all(stored not in provider._runs.values() for provider in manager.providers)
    assert client.read(blob).fingerprint() == SyntheticBytes("v2", 100 * CHUNK).fingerprint()


def test_fetch_many_refuses_a_hint_list_of_another_length():
    """It used to zip the two and silently return fewer chunks than keys."""
    manager = ProviderManager()
    manager.register(DataProvider("p0"))
    keys = [ChunkKey(1, 1), ChunkKey(1, 2)]
    for key in keys:
        manager.store_replicated(Chunk(key, LiteralBytes(b"x")))
    assert [c.key for c in manager.fetch_many(keys, [("p0",), ()])] == keys
    with pytest.raises(StorageError, match="2 keys, 1 hints"):
        manager.fetch_many(keys, [("p0",)])


def test_holds_asks_the_placed_providers_first():
    """``locate`` finds who holds a chunk: the providers it was placed on, then everyone."""
    manager = ProviderManager()
    for index in range(4):
        manager.register(DataProvider(f"p{index}"))
    chunk = Chunk(ChunkKey(1, 1), LiteralBytes(b"canonical"))
    placed = manager.store_replicated(chunk).providers
    others = [p for p in manager.providers if p.provider_id not in placed]
    asked = []
    for other in others:
        other._find = asked.append  # finds nothing (``None``), records the question
    run, index = manager.locate(chunk.key, placed)
    assert run.chunk(index).data.read() == b"canonical" and asked == []  # the hint sufficed
    for other in others:
        del other._find
    assert manager.locate(chunk.key) == (run, 0)
    manager.get(placed[0]).fail()
    with pytest.raises(ChunkNotFoundError, match="not stored on any live provider"):
        manager.locate(chunk.key, placed)
    others[0].store(chunk)
    found, _index = manager.locate(chunk.key, placed)  # found by asking everyone
    assert found is not run and found.payload.read() == b"canonical"
