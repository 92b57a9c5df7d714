"""Tests of the content-addressed dedup & compression subsystem."""

from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blobseer import BlobClient, DataProvider, ProviderManager
from repro.blobseer.provider import StoredRun
from repro.core.gc import SnapshotGarbageCollector
from repro.dedup import engine as engine_module
from repro.dedup import (
    HEADER_BYTES,
    ChunkIndex,
    DedupEngine,
    IdentityCodec,
    build_engine,
    content_digest,
    is_zero_content,
    make_codec,
)
from repro.scenarios import fig7_dedup
from repro.util import LiteralBytes, SyntheticBytes, ZeroBytes, bytesource
from repro.util.bytesource import _BLOCK, ByteSource, concat, content_equal
from repro.util.config import GRAPHENE, DedupSpec
from repro.util.errors import ConfigurationError, StorageError


def make_client(num_providers=4, replication=1, chunk_size=1024, dedup=None):
    manager = ProviderManager(replication=replication)
    for i in range(num_providers):
        manager.register(DataProvider(f"p{i}"))
    return BlobClient(providers=manager, default_chunk_size=chunk_size, dedup=dedup)


class TestContentDigest:
    def test_equal_content_equal_digest_across_representations(self):
        synthetic = SyntheticBytes("seed", 4096)
        literal = LiteralBytes(synthetic.read())
        assert content_digest(synthetic) == content_digest(literal)

    def test_zero_bytes_match_literal_zeros(self):
        assert content_digest(ZeroBytes(512)) == content_digest(LiteralBytes(b"\x00" * 512))

    def test_concat_matches_flat_content(self):
        a, b = LiteralBytes(b"abc"), LiteralBytes(b"defg")
        assert content_digest(concat([a, b])) == content_digest(LiteralBytes(b"abcdefg"))

    def test_different_content_different_digest(self):
        assert content_digest(LiteralBytes(b"aaaa")) != content_digest(LiteralBytes(b"aaab"))

    def test_size_embedded_in_digest(self):
        assert content_digest(ZeroBytes(100)) != content_digest(ZeroBytes(101))

    def test_is_zero_content(self):
        digest = content_digest(LiteralBytes(b"\x00" * 64))
        assert is_zero_content(digest, 64)
        assert not is_zero_content(content_digest(LiteralBytes(b"x" * 64)), 64)


class TestCodecs:
    def test_identity_codec_is_free(self):
        codec = IdentityCodec()
        assert codec.stored_size(1000) == 1000
        assert codec.compress_seconds(1000) == 0.0
        assert codec.decompress_seconds(1000) == 0.0

    def test_simulated_codec_ratio_and_cpu(self):
        codec = make_codec("zlib", ratio=2.0, compress_bandwidth=100.0, decompress_bandwidth=400.0)
        assert codec.stored_size(1000) == HEADER_BYTES + 500
        assert codec.compress_seconds(1000) == pytest.approx(10.0)
        assert codec.decompress_seconds(1000) == pytest.approx(2.5)

    def test_zero_chunks_collapse_to_header(self):
        codec = make_codec("lz4")
        assert codec.stored_size(256 * 1024, is_zero=True) == HEADER_BYTES
        assert codec.stored_size(0) == 0

    def test_stored_size_never_exceeds_logical(self):
        codec = make_codec("zlib", ratio=1.0)
        assert codec.stored_size(10) == 10

    def test_unknown_codec_rejected(self):
        with pytest.raises(ConfigurationError):
            make_codec("zstd")

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            make_codec("zlib", ratio=0.5)


def stored_run(chunk_id, logical_size, stored_size):
    """A run of one chunk as the providers keep it, with nothing behind it."""
    return StoredRun(1, chunk_id, (("p0",),), None, logical_size, logical_size, stored_size)


class TestChunkIndex:
    def test_add_lookup_forget_lifecycle(self):
        index = ChunkIndex()
        run = stored_run(1, 100, 40)
        index.add("digest", run)
        assert index.lookup("digest") is run
        assert len(index) == 1
        # However many stripes share it, the index holds it once ...
        assert index.lookup("digest") is run
        # ... until it leaves the store.
        index.forget(run)
        assert index.lookup("digest") is None
        assert len(index) == 0
        # The digest is free for the run that stores the content afresh.
        index.add("digest", stored_run(2, 100, 40))

    def test_forgetting_an_unknown_run_changes_nothing(self):
        index = ChunkIndex()
        run = stored_run(1, 10, 10)
        index.add("d", run)
        index.forget(stored_run(9, 10, 10))
        assert index.lookup("d") is run

    def test_duplicate_registration_rejected(self):
        index = ChunkIndex()
        run = stored_run(1, 10, 10)
        index.add("d", run)
        with pytest.raises(StorageError):
            index.add("d", stored_run(2, 10, 10))
        with pytest.raises(StorageError):
            index.add("e", run)
        assert len(index) == 1 and index.lookup("e") is None

    def test_byte_accounting(self):
        index = ChunkIndex()
        index.add("d1", stored_run(1, 100, 40))
        index.add("d2", stored_run(2, 100, 100))
        assert index.stored_bytes == 140
        assert index.logical_bytes == 200


class TestBuildEngine:
    def test_disabled_spec_builds_nothing(self):
        assert build_engine(DedupSpec(enabled=False)) is None
        assert build_engine(None) is None

    def test_enabled_spec_builds_engine_with_codec(self):
        engine = build_engine(DedupSpec(enabled=True, codec="lz4", compression_ratio=3.0))
        assert engine is not None
        assert engine.codec.name == "lz4"
        assert engine.codec.ratio == 3.0


class TestDedupWritePath:
    def test_duplicate_content_is_not_stored_twice(self):
        client = make_client(dedup=DedupEngine())
        blob = client.create_blob(1024)
        payload = SyntheticBytes("dup", 4096)
        first = client.write(blob, 0, payload)
        second = client.write(blob, 4096, payload)
        assert first.bytes_written == 4096
        assert second.bytes_written == 0
        assert second.dedup_hits == 4
        assert second.dedup_saved_bytes == 4096
        assert second.logical_bytes == 4096
        # Physically only one copy exists.
        assert client.storage_footprint() == 4096

    def test_dedup_across_blobs(self):
        client = make_client(dedup=DedupEngine())
        payload = SyntheticBytes("shared", 2048)
        blob_a = client.create_blob(1024, initial_data=payload)
        blob_b = client.create_blob(1024, initial_data=payload)
        assert client.storage_footprint() == 2048
        assert client.read(blob_b).read() == payload.read()
        assert blob_a != blob_b

    def test_a_hit_shares_the_stored_run(self):
        client = make_client(dedup=DedupEngine())
        blob = client.create_blob(1024)
        payload = SyntheticBytes("shared", 1024)
        first = client.write(blob, 0, payload)
        second = client.write(blob, 1024, payload)
        # The repeated stripe's descriptor carries its own key ...
        ((shipped, _first, _last),) = client.metadata.extents_in_range(blob, first.version, 0, 0)
        ((hit, _first, _last),) = client.metadata.extents_in_range(blob, second.version, 1, 1)
        assert hit.descriptor(1).key != shipped.descriptor(0).key
        assert client.chunk_keys(blob) == {shipped.descriptor(0).key, hit.descriptor(1).key}
        # ... shipped nothing, and is read from the very run the first one stored.
        assert (hit.physical_length, second.runs) == (0, [])
        assert hit.stored is shipped.stored and hit.providers is shipped.stored.placements
        assert client.dedup.index.lookup(content_digest(payload)) is shipped.stored
        assert client.read(blob, 1024, 1024).read() == payload.read()

    def test_read_roundtrip_with_interleaved_duplicates(self):
        client = make_client(dedup=DedupEngine())
        blob = client.create_blob(1024)
        a = SyntheticBytes("a", 1024)
        b = SyntheticBytes("b", 1024)
        pieces = [(0, a), (1024, b), (2048, a), (3072, b), (4096, a)]
        client.write_batch(blob, pieces)
        assert client.storage_footprint() == 2048  # one copy of a, one of b
        for offset, expected in pieces:
            assert client.read(blob, offset, 1024).read() == expected.read()

    def test_old_versions_readable_after_dedup(self):
        client = make_client(dedup=DedupEngine())
        blob = client.create_blob(1024)
        x = SyntheticBytes("x", 1024)
        y = SyntheticBytes("y", 1024)
        v1 = client.write(blob, 0, x).version
        v2 = client.write(blob, 0, y).version
        v3 = client.write(blob, 0, x).version  # deduped against v1's chunk
        assert client.read(blob, 0, 1024, version=v1).read() == x.read()
        assert client.read(blob, 0, 1024, version=v2).read() == y.read()
        assert client.read(blob, 0, 1024, version=v3).read() == x.read()
        assert client.storage_footprint() == 2048

    def test_replicated_canonical_serves_aliases(self):
        client = make_client(num_providers=3, replication=2, dedup=DedupEngine())
        blob = client.create_blob(1024)
        payload = SyntheticBytes("rep", 1024)
        first = client.write(blob, 0, payload)
        second = client.write(blob, 1024, payload)
        assert client.storage_footprint() == 2048  # two replicas, one content
        (_key, _size, providers) = first.chunks[0]
        desc = client.metadata.lookup(blob, second.version, 1)
        assert desc.providers == providers
        # Losing one replica keeps the aliased stripe readable.
        client.providers.get(providers[0]).fail()
        assert client.read(blob, 1024, 1024).read() == payload.read()


def _spy_digests(monkeypatch):
    """Record the size of every payload the dedup engine hashes."""
    hashed = []

    def spy(payload):
        hashed.append(payload.size)
        return content_digest(payload)

    monkeypatch.setattr(engine_module, "content_digest", spy)
    return hashed


@st.composite
def _window_cuts(draw):
    """A window of a generated source, and where to cut a second parent."""
    size = draw(st.integers(1, 3 * _BLOCK + 100))
    start = draw(st.integers(0, size - 1))
    length = draw(st.integers(1, size - start))
    cut = draw(st.integers(0, start))
    return draw(st.integers(0, 3)), size, start, length, cut


class TestSyntheticDigestMemo:
    """The engine hashes each generated window once and reuses the digest."""

    # tier-1 budget: 60 examples of windows up to ~200 KiB, under 2 s
    @settings(max_examples=60, deadline=None)
    @given(_window_cuts())
    def test_memo_digest_is_the_content_digest(self, cuts):
        seed, size, start, length, cut = cuts
        parent = SyntheticBytes(("memo", seed), size)
        window = parent.slice(start, length)
        # The same window cut from a different parent: a slice of the first.
        same = parent.slice(cut, size - cut).slice(start - cut, length)
        other_seed = SyntheticBytes(("memo", seed + 1), size).slice(start, length)
        engine = DedupEngine()
        providers = ProviderManager()
        with mock.patch.object(engine_module, "content_digest", wraps=content_digest) as hashed:
            for payload, calls in [(window, 1), (same, 1), (window, 1), (other_seed, 2)]:
                expected = content_digest(LiteralBytes(payload.read()))
                assert engine.ingest(payload, providers).digest == expected
                assert hashed.call_count == calls
            if start + length < size:
                shifted = parent.slice(start + 1, length)
                expected = content_digest(LiteralBytes(shifted.read()))
                assert engine.ingest(shifted, providers).digest == expected
                assert hashed.call_count == 3

    def test_reduced_fig7_cell_hashes_each_distinct_window_once(self, monkeypatch):
        hashed = _spy_digests(monkeypatch)
        fig7_dedup.run_fig7_cell("dedup")
        # 61 blocks at the first commit, then the 15 each later commit
        # changes: 121 windows, not one per (version, block) = 305.
        assert len(hashed) == 61 + 4 * 15 == 121
        # A fresh cloud brings a fresh engine: the memo does not outlive it.
        fig7_dedup.run_fig7_cell("dedup")
        assert len(hashed) == 2 * 121

    def test_other_sources_are_hashed_every_time(self, monkeypatch):
        hashed = _spy_digests(monkeypatch)
        engine = DedupEngine()
        literal = LiteralBytes(SyntheticBytes("lit", 512).read())
        for payload in (literal, literal, concat([literal, literal]), concat([literal, literal])):
            engine.ingest(payload, ProviderManager())
        assert hashed == [512, 512, 1024, 1024]


class TestProviderFailureInvalidation:
    def test_lost_canonical_chunk_is_restored_not_aliased(self):
        client = make_client(num_providers=2, dedup=DedupEngine())
        blob = client.create_blob(1024)
        payload = SyntheticBytes("lost", 1024)
        first = client.write(blob, 0, payload)
        (_key, _size, providers) = first.chunks[0]
        # Fail-stop loss of the only replica of the canonical chunk.
        client.providers.get(providers[0]).fail()
        second = client.write(blob, 1024, payload)
        # The stale index entry is invalidated: the content is stored afresh
        # instead of being aliased to the lost chunk.
        assert second.dedup_hits == 0
        assert second.bytes_written == 1024
        assert client.dedup.invalidated_chunks == 1
        assert client.read(blob, 1024, 1024).read() == payload.read()

    def test_memo_hit_on_a_lost_run_is_stored_afresh(self, monkeypatch):
        hashed = _spy_digests(monkeypatch)
        client = make_client(num_providers=2, dedup=DedupEngine())
        blob = client.create_blob(1024)
        first = client.write(blob, 0, SyntheticBytes("memo-lost", 1024))
        client.providers.get(first.chunks[0][2][0]).fail()
        # A new source with the same generator key: the digest comes from the
        # memo, but the lost run it names is still found out and replaced.
        payload = SyntheticBytes("memo-lost", 1024)
        second = client.write(blob, 1024, payload)
        assert hashed == [1024]
        assert second.dedup_hits == 0
        assert second.bytes_written == 1024
        assert client.dedup.invalidated_chunks == 1
        assert client.read(blob, 1024, 1024).read() == payload.read()

    def test_surviving_replica_keeps_dedup_hit_valid(self):
        client = make_client(num_providers=3, replication=2, dedup=DedupEngine())
        blob = client.create_blob(1024)
        payload = SyntheticBytes("rep-live", 1024)
        first = client.write(blob, 0, payload)
        (_key, _size, providers) = first.chunks[0]
        client.providers.get(providers[0]).fail()
        second = client.write(blob, 1024, payload)
        # One replica survives, so the dedup hit is still valid.
        assert second.dedup_hits == 1
        assert second.bytes_written == 0
        assert client.read(blob, 1024, 1024).read() == payload.read()


class TestCompressionAccounting:
    def test_compressed_footprint_on_providers(self):
        engine = DedupEngine(make_codec("zlib", ratio=2.0))
        client = make_client(dedup=engine)
        blob = client.create_blob(1024)
        result = client.write(blob, 0, SyntheticBytes("c", 2048))
        expected = 2 * (HEADER_BYTES + 512)
        assert result.bytes_written == expected
        assert client.storage_footprint() == expected
        assert result.logical_bytes == 2048
        # Content still round-trips byte-exactly.
        assert client.read(blob, 0, 2048).read() == SyntheticBytes("c", 2048).read()

    def test_cpu_seconds_surface_in_write_result(self):
        engine = DedupEngine(
            make_codec("zlib", ratio=2.0, compress_bandwidth=1024.0), fingerprint_bandwidth=2048.0
        )
        client = make_client(dedup=engine)
        blob = client.create_blob(1024)
        result = client.write(blob, 0, SyntheticBytes("cpu", 1024))
        # 1024 B at 2 KiB/s fingerprinting + 1024 B at 1 KiB/s compression.
        assert result.compression_cpu_seconds == pytest.approx(0.5 + 1.0)

    def test_physical_vs_logical_incremental_footprint(self):
        client = make_client(dedup=DedupEngine(make_codec("zlib", ratio=2.0)))
        blob = client.create_blob(1024)
        payload = SyntheticBytes("inc", 1024)
        v1 = client.write(blob, 0, payload).version
        v2 = client.write(blob, 1024, payload).version
        assert client.incremental_footprint(blob, v1) == 1024
        assert client.incremental_footprint(blob, v1, physical=True) == HEADER_BYTES + 512
        assert client.incremental_footprint(blob, v2) == 1024
        assert client.incremental_footprint(blob, v2, physical=True) == 0

    def test_physical_version_footprint_counts_canonical_once(self):
        client = make_client(dedup=DedupEngine(make_codec("zlib", ratio=2.0)))
        blob = client.create_blob(1024)
        payload = SyntheticBytes("full", 1024)
        client.write(blob, 0, payload)
        result = client.write(blob, 1024, payload)
        logical = client.version_footprint(blob, result.version)
        physical = client.version_footprint(blob, result.version, physical=True)
        assert logical == 2048
        assert physical == HEADER_BYTES + 512

    def test_zero_stripes_dedup_and_compress(self):
        client = make_client(dedup=DedupEngine(make_codec("lz4")))
        blob = client.create_blob(1024)
        result = client.write(blob, 0, LiteralBytes(b"\x00" * 4096))
        # First zero stripe stores a header; the rest dedup against it.
        assert result.bytes_written == HEADER_BYTES
        assert result.dedup_hits == 3


class TestBatchRollback:
    def test_failed_batch_rolls_back_aliases_refcounts_and_chunks(self):
        """Nothing is kept per stripe that shares a stored chunk, so what there
        is to roll back is the chunks the batch shipped and their index entries."""
        manager = ProviderManager()
        manager.register(DataProvider("p0", capacity=2048))
        client = BlobClient(providers=manager, default_chunk_size=1024, dedup=DedupEngine())
        blob = client.create_blob(1024)
        shared = SyntheticBytes("rb-shared", 1024)
        client.write(blob, 0, shared)
        # Batch: a dedup hit, one chunk that fits, one that cannot (disk full).
        with pytest.raises(StorageError):
            client.write_batch(blob, [
                (1024, shared),
                (2048, SyntheticBytes("rb-b", 1024)),
                (3072, SyntheticBytes("rb-c", 1024)),
            ])
        # The chunk stored before the failure was deleted again and the index
        # is what it was ...
        assert client.storage_footprint() == 1024
        assert len(client.dedup.index) == 1
        # ... the blob is unscathed: the same write works once there is room ...
        retry = client.write(blob, 1024, shared)
        assert retry.dedup_hits == 1
        assert client.read(blob, 1024, 1024).read() == shared.read()
        # ... and the failed batch holds on to nothing: when the last version
        # that references the shared content is collected, it goes.
        other = SyntheticBytes("rb-other", 1024)
        client.write(blob, 0, concat([other, other]))
        SnapshotGarbageCollector(SimpleNamespace(client=client), keep_latest=1).collect()
        assert client.storage_footprint() == 1024
        assert len(client.dedup.index) == 1
        assert client.read(blob).read() == other.read() * 2

    def test_placement_accounts_for_compressed_footprint(self):
        # 1024 logical bytes compress to 528; a 600-byte provider must accept.
        manager = ProviderManager()
        manager.register(DataProvider("p0", capacity=600))
        client = BlobClient(
            providers=manager,
            default_chunk_size=1024,
            dedup=DedupEngine(make_codec("zlib", ratio=2.0)),
        )
        blob = client.create_blob(1024)
        payload = SyntheticBytes("fit", 1024)
        result = client.write(blob, 0, payload)
        assert result.bytes_written == HEADER_BYTES + 512
        assert client.read(blob, 0, 1024).read() == payload.read()


class TestDedupDisabled:
    def test_no_engine_means_seed_semantics(self):
        client = make_client()
        blob = client.create_blob(1024)
        payload = SyntheticBytes("off", 2048)
        first = client.write(blob, 0, payload)
        second = client.write(blob, 2048, payload)
        assert first.bytes_written == second.bytes_written == 2048
        assert second.dedup_hits == 0
        assert client.storage_footprint() == 4096


class _TaggedRead(ByteSource):
    """A version read back by fig7 that remembers which block a slice of it is."""

    __slots__ = ("inner", "tag")

    def __init__(self, inner, tag):
        self.inner = inner
        self.tag = tag

    @property
    def size(self):
        return self.inner.size

    def read(self, offset=0, length=None):
        return self.inner.read(offset, length)

    def _fill(self, offset, view):
        self.inner._fill(offset, view)

    def slice(self, offset, length):
        block = offset // GRAPHENE.blobseer.chunk_size
        return _TaggedRead(self.inner.slice(offset, length), (self.tag, block))

    def fingerprint(self):
        return self.inner.fingerprint()


class TestFig7Verification:
    """``run_fig7_cell`` compares every block of every version it committed.

    The reduced cell commits 5 versions of a 61-block state file, so a
    verification that skips the earlier versions, or the blocks a version did
    not change, compares fewer than 5 x 61 pairs and misses the fault below.
    """

    VERSIONS, BLOCKS = 5, 61

    def _spy_reads(self, monkeypatch, corrupt=None):
        """Tag every version read back; ``corrupt`` = (version, block) to damage."""
        real_read = BlobClient.read
        versions = []

        def read(client, blob_id, offset=0, size=None, version=None):
            data = real_read(client, blob_id, offset, size, version)
            versions.append(version)
            if corrupt is not None and version == corrupt[0]:
                block_size = GRAPHENE.blobseer.chunk_size
                start = corrupt[1] * block_size
                data = concat(
                    [
                        data.slice(0, start),
                        SyntheticBytes("not-fig7", block_size),
                        data.slice(start + block_size, data.size - start - block_size),
                    ]
                )
            return _TaggedRead(data, version)

        monkeypatch.setattr(BlobClient, "read", read)
        return versions

    def test_every_version_block_pair_is_compared_once(self, monkeypatch):
        versions = self._spy_reads(monkeypatch)
        pairs = Counter()

        def spy(stored, expected):
            pairs[stored.tag] += 1
            return content_equal(stored, expected)

        monkeypatch.setattr(fig7_dedup, "content_equal", spy)
        assert fig7_dedup.run_fig7_cell("dedup")["restored_ok"] is True
        assert versions == [1, 2, 3, 4, 5]
        assert sum(pairs.values()) == self.VERSIONS * self.BLOCKS == 305
        assert pairs == Counter({(v, b): 1 for v in versions for b in range(self.BLOCKS)})

    def test_each_content_epoch_of_a_block_is_generated_once(self):
        # 61 + 4 x 15 = 121 distinct (block, epoch) windows.  Block-major
        # order serves a version that repeats its predecessor's window from
        # the block cache, and the stored side of each comparison reads what
        # the expected side just generated.  Without dedup nothing else
        # generates content.
        bytesource._block.cache_clear()
        assert fig7_dedup.run_fig7_cell("off")["restored_ok"] is True
        blocks_per_window = GRAPHENE.blobseer.chunk_size // _BLOCK
        assert bytesource._block.cache_info().misses == 121 * blocks_per_window

    def test_a_wrong_unchanged_block_of_a_middle_version_fails(self, monkeypatch):
        # Block 0 gets new content at epochs 1 and 5 only, so version 3 holds
        # the same (block 0, epoch 1) as version 2: it is unchanged there.
        self._spy_reads(monkeypatch, corrupt=(3, 0))
        assert fig7_dedup.run_fig7_cell("dedup")["restored_ok"] is False
