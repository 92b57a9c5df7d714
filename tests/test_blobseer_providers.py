"""The provider layer of BlobSeer against a model of the run plane.

Arbitrary sequences of the operations that reach a data provider -- batched
client writes (aligned, unaligned, overlapping, short last stripe), clones,
releases of a range of a stored run, snapshot collection, fail-stop crashes,
reads -- are replayed on
a test-local model that knows, per stored run, which provider holds which of
its chunks and how many bytes that takes, and per published version which
chunk of which run holds each stripe (the put/get round trip of the blob-store
suites in ``SNIPPETS.md``, generalised).  After every operation

* every published version reads back as the ``bytearray`` it was built from,
  or raises ``ChunkNotFoundError`` naming the first stripe whose chunk no
  live provider of its placement holds any more;
* every provider's ``used_bytes`` is what the model's (run, chunk, provider)
  entries add up to;
* every run table counts, per run, the placed chunks minus the released ones,
  and a run no table names any more has given up its payload;

and a release or a collection done twice frees nothing the second time.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blobseer import BlobClient, Chunk, ChunkKey, DataProvider, ProviderManager
from repro.core.gc import SnapshotGarbageCollector
from repro.util import LiteralBytes, SyntheticBytes
from repro.util.errors import ChunkNotFoundError, StorageError

CHUNK = 8


class Harness:
    """The store under test and its model, advanced in lock step."""

    def __init__(self, capacities, replication):
        self.manager = ProviderManager(replication=replication)
        self.providers = [
            DataProvider(f"node-{index}", capacity=capacity)
            for index, capacity in enumerate(capacities)
        ]
        for provider in self.providers:
            self.manager.register(provider)
        self.client = BlobClient(providers=self.manager, default_chunk_size=CHUNK)
        self.blobs = [self.client.create_blob()]
        #: (blob, version) -> content, for every published version
        self.versions = {(self.blobs[0], 0): b""}
        #: (blob, version) -> {stripe: (run number, chunk index)}
        self.maps = {(self.blobs[0], 0): {}}
        #: every run a write stored (a run's number is its index here)
        self.stored = []
        #: (run number, chunk index, provider index) -> stored bytes, for every
        #: replica a provider holds
        self.held = {}

    def model_of(self, provider_id):
        """Index of the provider of that id."""
        return next(
            index
            for index, provider in enumerate(self.providers)
            if provider.provider_id == provider_id
        )

    def used(self, index):
        return sum(nbytes for (_run, _i, p), nbytes in self.held.items() if p == index)

    def holders(self, run, index):
        """Indices of the providers a reader can get that chunk from."""
        return [p for (r, i, p) in self.held if (r, i) == (run, index) and self.providers[p].alive]

    def key_of(self, run, index):
        stored = self.stored[run]
        return ChunkKey(stored.blob_id, stored.first_chunk_id + index)

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
        used = [provider.used_bytes for provider in self.providers]
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
        assert result.chunk_count == len(descriptors)
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
        stripes = dict(self.maps[(blob, base_version)])
        for run in runs:
            number = len(self.stored)
            self.stored.append(run.stored)
            for index, placed in enumerate(run.stored.placements):
                stripe = run.first_stripe + index
                data = bytes(model[stripe * CHUNK : stripe * CHUNK + touched[stripe]])
                stripes[stripe] = (number, index)
                assert len(set(placed)) == len(placed) >= 1
                for provider_id in placed:
                    self.held[(number, index, self.model_of(provider_id))] = len(data)
                    shipped[provider_id] = shipped.get(provider_id, 0) + len(data)
        gained = {
            provider.provider_id: provider.used_bytes - before
            for provider, before in zip(self.providers, used)
            if provider.used_bytes != before
        }
        assert gained == shipped
        self.maps[(blob, version)] = stripes

    def clone(self, blob_pick):
        blob = self.blobs[blob_pick % len(self.blobs)]
        version = self.client.latest_version(blob)
        clone = self.client.clone(blob)
        self.blobs.append(clone)
        self.versions[(clone, 0)] = self.versions[(blob, version)]
        self.maps[(clone, 0)] = self.maps[(blob, version)]

    def release(self, run_pick, first_pick, count_pick):
        """Chunks ``first .. stop - 1`` of a stored run leave every live
        provider that still holds them; a second call finds nothing."""
        if not self.stored:
            return
        number = run_pick % len(self.stored)
        run = self.stored[number]
        first = first_pick % len(run.placements)
        stop = first + 1 + count_pick % (len(run.placements) - first)
        freed = self.forget(number, range(first, stop))
        assert self.manager.release(run, first, stop) == freed
        assert self.manager.release(run, first, stop) == (0, 0)

    def forget(self, run, indices):
        """Take what a release of ``indices`` of ``run`` drops out of the model:
        (replicas, bytes)."""
        chunks = nbytes = 0
        for index in indices:
            for p in self.holders(run, index):
                chunks += 1
                nbytes += self.held.pop((run, index, p))
        return chunks, nbytes

    def collect(self, keep_latest, pins):
        """Snapshot collection: what only the dropped versions reference is
        released, and a second pass finds nothing."""
        pinned = {}
        for blob_pick, version_pick in pins:
            blob = self.blobs[blob_pick % len(self.blobs)]
            published = sorted(v for b, v in self.versions if b == blob)
            pinned.setdefault(blob, []).append(published[version_pick % len(published)])
        kept, dropped = set(), []
        for blob in self.blobs:
            published = sorted(v for b, v in self.versions if b == blob)
            keep = set(published[-keep_latest:]) | set(pinned.get(blob, ()))
            kept |= {(blob, v) for v in keep}
            dropped += [(blob, v) for v in published if v not in keep]
        retained = {ref for key in kept for ref in self.maps[key].values()}
        doomed = {ref for key in dropped for ref in self.maps[key].values()} - retained
        chunks = nbytes = 0
        for run, index in sorted(doomed, key=repr):
            freed = self.forget(run, (index,))
            chunks += freed[0]
            nbytes += freed[1]
        collector = SnapshotGarbageCollector(SimpleNamespace(client=self.client), keep_latest)
        report = collector.collect(pinned=pinned)
        assert sorted(report.dropped_versions) == sorted(dropped)
        assert (report.deleted_chunks, report.reclaimed_bytes) == (chunks, nbytes)
        for key in dropped:
            del self.versions[key]
            del self.maps[key]
        again = collector.collect(pinned=pinned)
        assert (again.dropped_versions, again.deleted_chunks, again.reclaimed_bytes) == ([], 0, 0)

    def fail(self, provider_pick):
        index = provider_pick % len(self.providers)
        self.providers[index].fail()
        self.held = {entry: n for entry, n in self.held.items() if entry[2] != index}

    # -- the model's predictions ---------------------------------------------------------------

    def expected_read(self, blob, version, offset, size):
        """``(bytes, None)``, or ``(None, first lost key)`` for a window of a version."""
        if size == 0:
            return b"", None
        stripes = self.maps[(blob, version)]
        for stripe in range(offset // CHUNK, (offset + size - 1) // CHUNK + 1):
            if stripe in stripes and not self.holders(*stripes[stripe]):
                return None, self.key_of(*stripes[stripe])
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
        published = sorted(v for b, v in self.versions if b == blob)
        version = published[version_pick % len(published)]
        total = len(self.versions[(blob, version)])
        offset = offset_pick % (total + 1)
        self.check_read(blob, version, offset, size_pick % (total - offset + 1))

    # -- the whole state, after every operation ----------------------------------------------

    def check(self):
        for index, provider in enumerate(self.providers):
            entries = [n for (_run, _i, p), n in self.held.items() if p == index]
            assert provider.used_bytes == sum(entries)
        assert self.manager.total_used_bytes == sum(
            self.used(index) for index in range(len(self.providers))
        )
        # a table names exactly the runs its provider still holds a chunk of,
        # counting the placed chunks minus the released ones; a run keeps its
        # payload exactly as long as some table names it
        tables = [provider._runs for provider in self.providers]
        for index, (provider, table) in enumerate(zip(self.providers, tables)):
            me = provider.provider_id
            for key, run in table.items():
                assert run.table_key == key and run.payload is not None
                assert run.held[me] == sum(
                    me in placed and (i, me) not in (run.dropped or ())
                    for i, placed in enumerate(run.placements)
                )
                assert len(run.held) == sum(other.get(key) is run for other in tables)
            for number, run in enumerate(self.stored):
                count = sum(1 for r, _i, p in self.held if r == number and p == index)
                assert (table.get(run.table_key) is run) == (count > 0)
                if count:
                    assert run.held[me] == count
        for run in self.stored:
            assert (run.payload is None) == (not run.held)
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
    st.tuples(st.just("release"), PICK, PICK, PICK),
    st.tuples(
        st.just("collect"),
        st.sampled_from([1, 1, 2, 3]),
        st.lists(st.tuples(PICK, PICK), max_size=2),
    ),
    st.tuples(st.just("fail"), PICK),
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


def three_providers(replication=1):
    manager = ProviderManager(replication=replication)
    providers = [DataProvider(f"node-{index}") for index in range(3)]
    for provider in providers:
        manager.register(provider)
    return manager, BlobClient(providers=manager, default_chunk_size=CHUNK), providers


def test_release_passes_over_a_failed_provider():
    """A run on four providers of which one has failed: a release drops what the
    other three hold, twice over nothing more, and then the run is gone."""
    harness = Harness([10**9] * 4, replication=1)
    harness.write(0, [(0, 8 * CHUNK, 1, False)])  # two stripes on each provider
    (run,) = harness.stored
    harness.fail(1)
    harness.check()
    harness.release(0, 0, 2)  # stripes 0..2
    harness.check()
    harness.release(0, 0, 7)  # the whole run: what is left of it on three providers
    harness.check()
    assert not run.held and run.payload is None
    assert harness.manager.total_used_bytes == 0


def test_a_version_whose_every_placed_holder_is_gone_names_its_first_lost_chunk():
    """Released on one stripe, failed under another: the read names the first."""
    harness = Harness([10**9] * 3, replication=1)
    harness.write(0, [(0, 6 * CHUNK, 5, False)])  # two stripes on each provider
    (run,) = harness.stored
    victim = run.placements[4][0]
    harness.fail(harness.model_of(victim))
    harness.release(0, 5, 0)  # stripe 5
    harness.check()
    lost = min(i for i, placed in enumerate(run.placements) if victim in placed or i == 5)
    expected, key = harness.expected_read(harness.blobs[0], 1, 0, 6 * CHUNK)
    assert expected is None and key == ChunkKey(run.blob_id, run.first_chunk_id + lost)
# -- what the provider layer keeps: runs, not chunks -----------------------------------------


def test_commit_and_read_of_a_run_allocate_per_run_not_per_stripe():
    """800 aligned stripes over 120 providers: one stored run shared by all,
    a read that is one slice of the committed payload, and next to nothing
    per stripe left for the cyclic collector to walk."""
    import gc

    stripes, chunk = 800, 64
    manager = ProviderManager()
    providers = [DataProvider(f"node-{index}") for index in range(120)]
    for provider in providers:
        manager.register(provider)
    client = BlobClient(providers=manager, default_chunk_size=chunk)
    # what is paid once (every provider's run table turning GC-tracked with its
    # first entry) is paid by a first commit
    warm_up = client.create_blob()
    client.write_batch(warm_up, [(0, SyntheticBytes("warm-up", 120 * chunk))])
    client.read(warm_up)
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
    tables = [list(provider._runs.values()) for provider in providers]
    assert all(table[1:] == [run.stored] for table in tables)  # after the warm-up's run
    assert run.stored.placements is run.providers and run.stored.dropped is None
    assert len(run.stored.held) == 120
    assert sum(run.stored.held.values()) == stripes
    assert sum(p.used_bytes for p in providers) == (120 + stripes) * chunk



def test_deleting_one_chunk_leaves_the_rest_of_its_run_readable():
    manager, client, _providers = three_providers()
    blob = client.create_blob()
    data = bytes(range(12 * CHUNK))
    (run,) = client.write_batch(blob, [(0, LiteralBytes(data))]).runs
    key = ChunkKey(blob, run.first_chunk_id + 5)
    (holder,) = run.providers[5]
    assert manager.release(run.stored, 5, 6) == (1, CHUNK)
    assert run.stored.dropped == {(5, holder)}
    assert run.stored.held[holder] == 3  # of the four chunks the run put there
    assert client.read(blob, 0, 5 * CHUNK).read() == data[: 5 * CHUNK]
    assert client.read(blob, 6 * CHUNK, 6 * CHUNK).read() == data[6 * CHUNK :]
    with pytest.raises(ChunkNotFoundError) as raised:
        client.read(blob)
    assert str(raised.value) == f"chunk {key} is not stored on any live provider"


def test_a_run_leaves_a_table_with_the_last_chunk_held_there():
    """Releasing frees: a provider forgets a run with its last chunk of it, and
    the payload goes when the last provider has."""
    manager, client, providers = three_providers(replication=2)
    blob = client.create_blob()
    (run,) = client.write_batch(blob, [(0, LiteralBytes(bytes(range(7 * CHUNK))))]).runs
    stored = run.stored
    assert len(stored.held) == 3 and stored.dropped is None
    for index in range(7):
        assert manager.release(stored, index, index + 1) == (2, 2 * CHUNK)
        left = {provider_id for placed in run.providers[index + 1 :] for provider_id in placed}
        assert {p.provider_id for p in providers if stored in p._runs.values()} == left
        assert set(stored.held) == left and (stored.payload is None) == (not left)
    assert stored.dropped is None  # the exceptions went with the payload
    assert manager.total_used_bytes == 0 and all(not p._runs for p in providers)
    with pytest.raises(ChunkNotFoundError):
        client.read(blob)


def test_a_chunk_stored_alone_at_the_first_id_of_a_longer_run_is_its_own_run():
    """A table files a run under its length too: a run of one stored under the
    first key of a longer run sits beside it, and each leaves on its own."""
    manager = ProviderManager(replication=2)
    providers = [DataProvider(f"node-{index}") for index in range(2)]
    for provider in providers:
        manager.register(provider)
    client = BlobClient(providers=manager, default_chunk_size=CHUNK)
    blob = client.create_blob()
    data = bytes(range(4 * CHUNK))
    (run,) = client.write_batch(blob, [(0, LiteralBytes(data))]).runs
    first = ChunkKey(blob, run.first_chunk_id)
    manager.store_replicated(Chunk(first, LiteralBytes(b"alone")))
    for provider in providers:
        assert provider.used_bytes == 4 * CHUNK + len(b"alone") and len(provider._runs) == 2
        assert run.stored in provider._runs.values()
    assert client.read(blob).read() == data
    assert manager.release(run.stored, 0, 4) == (8, 8 * CHUNK)
    assert manager.fetch_any(first).data.read() == b"alone"
    assert manager.total_used_bytes == 2 * len(b"alone")


def test_rollback_and_gc_leave_nothing_for_the_collector():
    """A rolled-back batch and a collected version are gone from every table,
    and take their objects with them."""
    import gc
    from types import SimpleNamespace

    from repro.core.gc import SnapshotGarbageCollector

    manager = ProviderManager(replication=2)
    providers = [DataProvider(f"node-{index}", capacity=200 * CHUNK) for index in range(4)]
    for provider in providers:
        manager.register(provider)
    client = BlobClient(providers=manager, default_chunk_size=CHUNK)
    blob = client.create_blob()
    client.write_batch(blob, [(0, SyntheticBytes("v1", 100 * CHUNK))])
    stored_v1 = [run.stored for run, _f, _l in client.metadata.extents_in_range(blob, 1, 0, 99)]

    def tracked():
        gc.collect()
        return len(gc.get_objects())

    def overflow():  # 100 stripes fit, the 300 after the gap do not
        with pytest.raises(StorageError, match="no live data provider has room"):
            fits, overflows = SyntheticBytes("a", 100 * CHUNK), SyntheticBytes("b", 300 * CHUNK)
            client.write_batch(blob, [(0, fits), (200 * CHUNK, overflows)])

    overflow()  # once unmeasured: what a first failure caches (pytest's compiled pattern)
    tables = [dict(provider._runs) for provider in providers]
    before = tracked()
    overflow()
    assert [provider._runs for provider in providers] == tables
    assert tracked() <= before
    assert manager.total_used_bytes == 2 * 100 * CHUNK

    client.write_batch(blob, [(0, SyntheticBytes("v2", 100 * CHUNK))])
    before = tracked()
    report = SnapshotGarbageCollector(SimpleNamespace(client=client)).collect()
    assert report.deleted_chunks == 2 * 100 and report.reclaimed_bytes == 2 * 100 * CHUNK
    assert tracked() < before
    for stored in stored_v1:
        assert len(stored.held) == 0 and stored.payload is None
        assert all(stored not in provider._runs.values() for provider in providers)
    assert client.read(blob).fingerprint() == SyntheticBytes("v2", 100 * CHUNK).fingerprint()


def test_holds_asks_the_placed_providers_first():
    """``fetch_any`` asks the providers a chunk was placed on, then everyone."""
    manager = ProviderManager()
    providers = [DataProvider(f"p{index}") for index in range(4)]
    for provider in providers:
        manager.register(provider)
    chunk = Chunk(ChunkKey(1, 1), LiteralBytes(b"canonical"))
    placed = manager.store_replicated(chunk).providers
    others = [p for p in providers if p.provider_id not in placed]
    asked = []
    for other in others:
        other._find = asked.append  # finds nothing (``None``), records the question
    assert manager.fetch_any(chunk.key, placed).data.read() == b"canonical"
    assert asked == []  # the hint sufficed
    assert manager.fetch_any(chunk.key).data.read() == b"canonical"
    holder = [p.provider_id for p in providers].index(placed[0])
    assert len(asked) == holder  # without one, everyone before the holder was asked
    for other in others:
        del other._find
    providers[holder].fail()
    with pytest.raises(ChunkNotFoundError, match="not stored on any live provider"):
        manager.fetch_any(chunk.key, placed)
