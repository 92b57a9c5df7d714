"""A dedup-enabled ``BlobClient`` against a model of what it should store.

The model knows nothing about how the store shares content.  It keeps one
:class:`Content` per stripe payload that was shipped -- its bytes, the size
the codec stores it at, the providers holding it -- a map from payload bytes
to the ``Content`` a repeat of them is expected to share (what the dedup
index answers), and per version the ``Content`` of each stripe.  After every
operation of a random history

* every version reads back the model's bytes, or raises
  ``ChunkNotFoundError`` exactly when every replica of a content it needs sat
  on failed providers;
* ``providers.total_used_bytes`` is the stored size of every content still
  referenced, once per live holder, ``len(dedup.index)`` is the size of the
  model's map, and two stripes of a version share a stored run exactly when
  the model has them share a content;
* a write reports the hits, the shipped bytes and the placements the model
  expects; a batch that runs out of room part-way leaves everything as it was;
* a collection reclaims exactly the contents no retained version references,
  and a second one reclaims nothing.
"""

import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blobseer import BlobClient, DataProvider, ProviderManager
from repro.core.gc import SnapshotGarbageCollector
from repro.dedup.codec import make_codec
from repro.dedup.engine import DedupEngine
from repro.util import LiteralBytes, SyntheticBytes
from repro.util.errors import ChunkNotFoundError, StorageError

#: stripe length: long enough for the zlib model to store a stripe in fewer
#: bytes than it holds
STRIPE = 64
#: per provider; the histories below ship at most 12 x 5 stripes, so only the
#: batch that is built to overflow ever runs out of room
CAPACITY = 64 * STRIPE


class Content:
    """One stripe payload on the providers."""

    def __init__(self, data, size, holders):
        self.data = data
        self.size = size
        self.holders = set(holders)


class Model:
    def __init__(self, providers, replication, codec):
        manager = ProviderManager(replication=replication)
        #: provider id -> provider, registration order
        self.providers = {}
        for index in range(providers):
            provider = self.providers[f"node-{index}"] = DataProvider(
                f"node-{index}", capacity=CAPACITY
            )
            manager.register(provider)
        self.codec = make_codec(codec)
        self.client = BlobClient(
            providers=manager, default_chunk_size=STRIPE, dedup=DedupEngine(self.codec)
        )
        self.blobs = []
        #: payload bytes -> the content a repeat of them shares
        self.index = {}
        #: (blob, version) -> (bytes, {stripe: Content})
        self.versions = {}
        self.fresh = 0

    # -- the model's own bookkeeping --------------------------------------------------

    def stored_size(self, data):
        return self.codec.stored_size(len(data), is_zero=not any(data))

    def referenced(self):
        return {
            content for _data, stripes in self.versions.values() for content in stripes.values()
        }

    def versions_of(self, blob):
        return sorted(version for b, version in self.versions if b == blob)

    def latest(self, blob):
        return self.versions_of(blob)[-1]

    def fresh_source(self, length):
        self.fresh += 1
        return SyntheticBytes(("dedup-model", self.fresh), length)

    def ingest(self, payloads, placements):
        """What storing ``payloads`` in order does to ``index``: per payload the
        content it ends up on and whether it was a hit; ``placements`` feeds
        the misses their providers."""
        outcome = []
        for data in payloads:
            known = self.index.get(data)
            if known is not None and known.holders:
                outcome.append((known, True))
                continue
            # unknown, or lost with its providers: stored afresh
            content = Content(data, self.stored_size(data), next(placements, ()))
            self.index[data] = content
            outcome.append((content, False))
        return outcome

    # -- operations ---------------------------------------------------------------------

    def create(self):
        blob = self.client.create_blob()
        self.blobs.append(blob)
        self.versions[(blob, 0)] = (b"", {})

    def write(self, blob, offset, source):
        client = self.client
        base_bytes, base_stripes = self.versions[(blob, self.latest(blob))]
        data = bytearray(base_bytes)
        data.extend(bytes(max(0, offset + source.size - len(data))))
        data[offset : offset + source.size] = source.read()
        touched = range(offset // STRIPE, (offset + source.size - 1) // STRIPE + 1)
        # a stripe the write covers in part is merged over what the base holds there
        needs = [
            base_stripes[stripe]
            for stripe in {touched[0], touched[-1]}
            if stripe in base_stripes
            and not (offset <= stripe * STRIPE and (stripe + 1) * STRIPE <= offset + source.size)
        ]
        if any(not content.holders for content in needs):
            with pytest.raises(ChunkNotFoundError):
                client.write_batch(blob, [(offset, source)])
            return
        result = client.write_batch(blob, [(offset, source)])
        payloads = [bytes(data[s * STRIPE : (s + 1) * STRIPE]) for s in touched]
        outcome = self.ingest(payloads, (run.providers[0] for run in result.runs))
        misses = [content for content, hit in outcome if not hit]
        hits = [content for content, hit in outcome if hit]
        # with the dedup layer on every stored stripe is a run of its own
        shipped = [
            run.span_bytes(run.first_stripe, run.last_stripe, physical=True) for run in result.runs
        ]
        assert shipped == [c.size for c in misses]
        expected_replicas = min(client.providers.replication, self.live_providers())
        assert all(len(c.holders) == expected_replicas for c in misses)
        assert result.dedup_hits == len(hits)
        assert result.dedup_saved_bytes == sum(len(c.data) for c in hits)
        assert result.bytes_written == sum(c.size for c in misses)
        assert result.logical_bytes == sum(len(p) for p in payloads)
        stripes = dict(base_stripes)
        stripes.update(zip(touched, (content for content, _hit in outcome)))
        self.versions[(blob, result.version)] = (bytes(data), stripes)

    def clone(self, blob, version):
        self.blobs.append(self.client.clone(blob, version=version))
        self.versions[(self.blobs[-1], 0)] = self.versions[(blob, version)]

    def fail(self, provider_id):
        self.providers[provider_id].fail()
        for content in self.referenced():
            content.holders.discard(provider_id)

    def live_providers(self):
        return sum(provider.alive for provider in self.providers.values())

    def collect(self, keep_latest, pinned):
        before = self.referenced()
        keep = {}
        for blob in self.blobs:
            keep[blob] = set(self.versions_of(blob)[-keep_latest:]) | set(pinned.get(blob, ()))
        dropped = sorted(key for key in self.versions if key[1] not in keep[key[0]])
        collector = SnapshotGarbageCollector(SimpleNamespace(client=self.client), keep_latest)
        report = collector.collect(pinned=pinned)
        assert sorted(report.dropped_versions) == dropped
        for key in dropped:
            del self.versions[key]
        doomed = before - self.referenced()
        assert report.deleted_chunks == sum(len(content.holders) for content in doomed)
        assert report.reclaimed_bytes == sum(
            content.size * len(content.holders) for content in doomed
        )
        for content in doomed:
            if self.index.get(content.data) is content:
                del self.index[content.data]
        self.check()
        again = collector.collect(pinned=pinned)
        assert (again.dropped_versions, again.deleted_chunks, again.reclaimed_bytes) == ([], 0, 0)

    def failed_batch(self, blob, fill):
        """A repeat of stored content, a fresh stripe that fits and more fresh
        stripes than there is room for: the batch fails in its last piece."""
        client = self.client
        repeat = bytes([fill]) * STRIPE
        free = sum(p.capacity - p.used_bytes for p in self.providers.values() if p.alive)
        overflow = free // self.stored_size(b"\x01" * STRIPE) + 1
        batch = [
            (0, LiteralBytes(repeat)),
            (STRIPE, self.fresh_source(STRIPE)),
            (3 * STRIPE, self.fresh_source(overflow * STRIPE)),
        ]
        latest = client.latest_version(blob)
        with pytest.raises(StorageError, match="no live data provider has room"):
            client.write_batch(blob, batch)
        assert client.latest_version(blob) == latest
        # All that stays of it: the index was asked about ``repeat``, found it
        # lost with its providers, and no longer offers it to later writes.
        known = self.index.get(repeat)
        if known is not None and not known.holders:
            del self.index[repeat]

    # -- the observables ----------------------------------------------------------------

    def check(self):
        client = self.client
        live = self.referenced()
        assert client.providers.total_used_bytes == sum(c.size * len(c.holders) for c in live)
        assert len(client.dedup.index) == len(self.index)
        for (blob, version), (data, stripes) in self.versions.items():
            runs = {
                stripe: run.stored
                for run, first, last in client.metadata.extents_in_range(
                    blob, version, 0, sys.maxsize
                )
                for stripe in range(first, last + 1)
            }
            assert runs.keys() == stripes.keys()
            shared = {(runs[stripe], content) for stripe, content in stripes.items()}
            assert len(shared) == len(set(runs.values())) == len(set(stripes.values()))
            if all(content.holders for content in stripes.values()):
                assert client.read(blob, version=version).read() == data
            else:
                with pytest.raises(ChunkNotFoundError):
                    client.read(blob, version=version)


PICK = st.integers(0, 10**6)
#: a handful of constant fills (0 = the all-zero stripe a codec stores as a
#: header), so whole stripes repeat within and across writes; ``None`` = fresh
FILL = st.one_of(st.none(), st.integers(0, 2), st.integers(0, 2))
WRITE = st.one_of(
    # whole stripes
    st.tuples(
        st.just("write"),
        PICK,
        st.integers(0, 3).map(lambda s: s * STRIPE),
        st.integers(1, 4).map(lambda n: n * STRIPE),
        FILL,
    ),
    # any window, up to five stripes touched
    st.tuples(
        st.just("write"), PICK, st.integers(0, 4 * STRIPE), st.integers(1, 3 * STRIPE + 2), FILL
    ),
)
OP = st.one_of(
    WRITE,
    WRITE,
    WRITE,
    st.tuples(st.just("clone"), PICK, PICK),
    st.tuples(
        st.just("collect"),
        st.sampled_from([1, 1, 2, 3]),
        st.lists(st.tuples(PICK, PICK), max_size=2),
    ),
    st.tuples(st.just("fail"), PICK),
    st.tuples(st.just("failed_batch"), PICK, st.integers(0, 2)),
)


def run_history(providers, replication, codec, ops):
    model = Model(providers, replication, codec)
    model.create()
    model.create()
    for op in ops:
        kind = op[0]
        blob = model.blobs[op[1] % len(model.blobs)]
        if kind == "write":
            _kind, _pick, offset, length, fill = op
            source = (
                model.fresh_source(length)
                if fill is None
                else LiteralBytes(bytes([fill]) * length)
            )
            model.write(blob, offset, source)
        elif kind == "clone":
            published = model.versions_of(blob)
            model.clone(blob, published[op[2] % len(published)])
        elif kind == "collect":
            pinned = {}
            for blob_pick, version_pick in op[2]:
                pin = model.blobs[blob_pick % len(model.blobs)]
                published = model.versions_of(pin)
                pinned.setdefault(pin, []).append(published[version_pick % len(published)])
            model.collect(op[1], pinned)
        elif kind == "fail":
            alive = [p.provider_id for p in model.providers.values() if p.alive]
            if len(alive) > 1:  # somebody has to take the next write
                model.fail(alive[op[1] % len(alive)])
        else:
            model.failed_batch(blob, op[2])
        model.check()
    return model


@settings(max_examples=200, deadline=None)
@given(
    providers=st.integers(2, 4),
    replication=st.sampled_from([1, 2]),
    codec=st.sampled_from(["identity", "zlib"]),
    ops=st.lists(OP, min_size=6, max_size=12),
)
def test_random_histories_match_the_model(providers, replication, codec, ops):
    run_history(providers, replication, codec, ops)


def fill(byte, stripes=1):
    return LiteralBytes(bytes([byte]) * stripes * STRIPE)


@pytest.mark.parametrize("codec", ["identity", "zlib"])
@pytest.mark.parametrize("replication", [1, 2])
def test_shared_content_lives_as_long_as_one_retained_version_needs_it(replication, codec):
    """The history of ``fig7``: one state rewritten whole, most of it unchanged."""
    model = Model(3, replication, codec)
    model.create()
    blob = model.blobs[0]
    model.write(blob, 0, fill(1, 4))  # one stripe shipped, three share it
    model.check()
    used = model.client.providers.total_used_bytes
    for byte in (2, 3):  # stripe 0 changes, stripes 1-3 repeat what is stored
        model.write(blob, 0, LiteralBytes(bytes([byte]) * STRIPE + b"\x01" * 3 * STRIPE))
        model.check()
    assert model.client.providers.total_used_bytes == 3 * used
    assert len(model.client.dedup.index) == 3
    # the version that shipped fill 1 goes; the latest still shares it in stripes 1-3
    model.collect(1, {})
    assert model.client.providers.total_used_bytes == 2 * used
    assert len(model.client.dedup.index) == 2


def test_content_lost_and_written_again_is_two_contents():
    model = Model(2, 1, "identity")
    model.create()
    blob = model.blobs[0]
    model.write(blob, 0, fill(1))  # v1
    (lost,) = model.index.values()
    model.fail(*lost.holders)
    model.check()
    model.write(blob, STRIPE, fill(1))  # v2: stored afresh; stripe 0 stays lost
    model.check()
    (again,) = model.index.values()
    assert again is not lost and again.holders
    model.write(blob, STRIPE, fill(2))  # v3
    # v2, which brought the content back, goes; the pinned v1 needs the lost copy
    model.collect(1, {blob: [1]})
    assert fill(1).read() not in model.index
    model.write(blob, 0, fill(1))  # and a repeat is shipped once more
    model.check()
    assert model.client.providers.total_used_bytes == 2 * STRIPE


def test_a_failed_batch_forgets_only_what_it_found_lost():
    model = Model(2, 1, "zlib")
    model.create()
    blob = model.blobs[0]
    model.write(blob, 0, fill(0))
    model.failed_batch(blob, 0)  # repeats live content: nothing changes
    model.check()
    assert len(model.client.dedup.index) == 1
    # not even a claim on what it repeated: that goes with the version that wrote it
    model.write(blob, 0, fill(1))
    model.collect(1, {})
    assert len(model.client.dedup.index) == 1
    model.write(blob, 0, fill(0))
    (zeros,) = (content for content in model.index.values() if not any(content.data))
    model.fail(*zeros.holders)
    model.failed_batch(blob, 0)  # asks about it, finds it lost
    model.check()
    assert fill(0).read() not in model.index
    model.write(blob, STRIPE, fill(0))
    model.check()
