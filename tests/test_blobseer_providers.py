"""The provider layer of BlobSeer against a per-chunk oracle.

Arbitrary sequences of the operations that reach a data provider -- batched
client writes (aligned, unaligned, overlapping, short last stripe), one-chunk
stores through a provider or the manager, deletes, fail-stop crashes and
deregistrations -- are replayed on a test-local model that keeps one
``{key: bytes}`` dict per provider (the put/get round trip of the blob-store
suites in ``SNIPPETS.md``, generalised).  After every operation each chunk
ever written must be exactly where, what and as large as the model says,
through every one-chunk view, and every published version must read back as
the ``bytearray`` it was built from -- or fail naming the first lost chunk.
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
            source = SyntheticBytes(seed, length) if synthetic else LiteralBytes(
                bytes((seed + 7 * i) % 251 for i in range(length))
            )
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
                shipped[provider_id] = shipped.get(provider_id, 0) + desc.length
        assert result.provider_bytes == shipped

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
        assert bool(self.providers[index].delete(key)) == self.oracle[index].delete(key)

    def fail(self, provider_pick):
        index = provider_pick % len(self.providers)
        self.providers[index].fail()
        self.oracle[index].fail()

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
        for desc in self.client.metadata.descriptors_in_range(
            blob, version, offset // CHUNK, last
        ):
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
            assert set(provider.keys()) == set(model.chunks)
            assert provider.chunk_count == len(model.chunks)
            assert provider.used_bytes == model.used
            assert provider.free_bytes == model.capacity - model.used
        assert self.manager.total_used_bytes == sum(o.used for o in self.oracle if o.registered)
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

