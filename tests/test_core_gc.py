"""Tests of the snapshot garbage collector: retention, replication and dedup.

The collector is purely functional (it never advances the simulated clock),
so these tests drive the checkpoint repository's client directly instead of
deploying full VMs.
"""

import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blobseer import BlobClient, ChunkKey, DataProvider, ProviderManager
from repro.cluster import Cloud
from repro.core import CheckpointRepository, SnapshotGarbageCollector
from repro.core.gc import GCReport
from repro.dedup.codec import make_codec
from repro.dedup.engine import DedupEngine
from repro.util import LiteralBytes, SyntheticBytes
from repro.util.config import GRAPHENE, DedupSpec
from repro.util.errors import ChunkNotFoundError, StorageError, VersionNotFoundError

CHUNK = 1024


def make_repo(replication=1, dedup=None):
    blobseer = replace(
        GRAPHENE.blobseer,
        chunk_size=CHUNK,
        replication=replication,
        dedup=dedup or DedupSpec(),
    )
    spec = GRAPHENE.scaled(compute_nodes=4, service_nodes=3, blobseer=blobseer)
    cloud = Cloud(spec)
    return CheckpointRepository(cloud)


def payload(seed, nbytes=4 * CHUNK):
    return SyntheticBytes(seed, nbytes)


class TestRetention:
    def test_pinned_versions_survive_collection(self):
        repo = make_repo()
        client = repo.client
        blob = client.create_blob(CHUNK)
        versions = [
            client.write_batch(blob, [(0, payload(("epoch", e)))]).version for e in range(4)
        ]
        pin = versions[0]
        collector = SnapshotGarbageCollector(repo, keep_latest=1)
        report = collector.collect(pinned={blob: [pin]})

        # The pinned version and the latest survive; the middle two are gone.
        assert client.read(blob, 0, 4 * CHUNK, version=pin).read() == payload(("epoch", 0)).read()
        assert (
            client.read(blob, 0, 4 * CHUNK, version=versions[-1]).read()
            == payload(("epoch", 3)).read()
        )
        dropped = {v for b, v in report.dropped_versions if b == blob}
        assert versions[1] in dropped and versions[2] in dropped
        assert pin not in dropped and versions[-1] not in dropped
        with pytest.raises(VersionNotFoundError):
            client.read(blob, 0, CHUNK, version=versions[1])

    def test_shared_chunks_with_retained_versions_kept(self):
        repo = make_repo()
        client = repo.client
        blob = client.create_blob(CHUNK)
        base = client.write_batch(blob, [(0, payload("base"))])
        # Only the first chunk changes; the other three stay shared.
        client.write_batch(blob, [(0, payload("delta", CHUNK))])
        before = repo.total_stored_bytes
        report = SnapshotGarbageCollector(repo, keep_latest=1).collect()
        # Only the overwritten first chunk of the base version is reclaimable.
        assert report.reclaimed_bytes == CHUNK
        assert repo.total_stored_bytes == before - CHUNK
        assert base.version in {v for _b, v in report.dropped_versions}
        # The survivor still reads correctly (shared chunks intact).
        expected = payload("delta", CHUNK).read() + payload("base").read()[CHUNK:]
        assert client.read(blob, 0, 4 * CHUNK).read() == expected


class TestReplicationAccounting:
    def test_reclaim_counts_every_replica(self):
        repo = make_repo(replication=2)
        client = repo.client
        blob = client.create_blob(CHUNK)
        client.write_batch(blob, [(0, payload("old"))])
        client.write_batch(blob, [(0, payload("new"))])
        before = repo.total_stored_bytes
        report = SnapshotGarbageCollector(repo, keep_latest=1).collect()
        # 4 chunks of the old version, 2 replicas each.
        assert report.deleted_chunks == 8
        assert report.reclaimed_bytes == 8 * CHUNK
        assert repo.total_stored_bytes == before - 8 * CHUNK


class TestRefcountedDedupCollection:
    def test_canonical_chunk_survives_until_last_alias_dropped(self):
        repo = make_repo(dedup=DedupSpec(enabled=True))
        client = repo.client
        shared = payload("shared")
        blob_a = client.create_blob(CHUNK)
        blob_b = client.create_blob(CHUNK)
        client.write_batch(blob_a, [(0, shared)])           # canonical chunks
        b_version = client.write_batch(blob_b, [(0, shared)]).version  # shares them, 0 shipped
        assert repo.total_stored_bytes == shared.size
        # Obsolete both blobs' shared versions with fresh content.
        client.write_batch(blob_a, [(0, payload("a2"))])
        client.write_batch(blob_b, [(0, payload("b2"))])

        collector = SnapshotGarbageCollector(repo, keep_latest=1)
        # Pass 1: drop only blob A's old version -- it owns the canonical
        # chunks, but blob B's stripes still share them.
        before = repo.total_stored_bytes
        report = collector.collect(blob_ids=[blob_a])
        assert report.deleted_chunks == 0
        assert report.reclaimed_bytes == 0
        assert repo.total_stored_bytes == before
        assert len(repo.dedup.index) == 12  # still offered to later writes
        assert client.read(blob_b, 0, shared.size, version=b_version).read() == shared.read()

        # Pass 2: drop blob B's old version -- the last references die and
        # the physical chunks are reclaimed.
        before = repo.total_stored_bytes
        report = collector.collect(blob_ids=[blob_b])
        assert report.deleted_chunks == 4
        assert report.reclaimed_bytes == shared.size
        assert repo.total_stored_bytes == before - shared.size
        assert len(repo.dedup.index) == 8  # the two fresh versions' chunks

    def test_dedup_within_one_blob_refcounts_across_versions(self):
        repo = make_repo(dedup=DedupSpec(enabled=True))
        client = repo.client
        blob = client.create_blob(CHUNK)
        content = payload("cycle", CHUNK)
        v1 = client.write_batch(blob, [(0, content)]).version
        client.write_batch(blob, [(0, payload("other", CHUNK))])
        v3 = client.write_batch(blob, [(0, content)]).version  # dedups against v1
        # Dropping v1 and v2 must keep the canonical chunk: v3 shares it.
        report = SnapshotGarbageCollector(repo, keep_latest=1).collect()
        assert v1 in {v for _b, v in report.dropped_versions}
        assert client.read(blob, 0, CHUNK, version=v3).read() == content.read()
        # Only the "other" chunk was reclaimable.
        assert report.reclaimed_bytes == CHUNK


# -- the collector against the by-key collector it replaced ---------------------------------
#
# Twin stores are taken through one version history; one is collected by
# ``SnapshotGarbageCollector``, the other by ``reference_collect`` -- the
# by-key collector, kept here: it materialises, for every version, the keys of
# the chunks that hold its stripes on the providers (with the dedup layer, a
# stripe whose content was already stored is held by the chunk that content
# was shipped as), takes the doomed ones as a set difference and releases them
# one chunk at a time.  Whatever can be observed afterwards must be equal.

#: stripe length: long enough for the zlib codec's model to store a whole stripe
#: in fewer bytes than it holds (16 of header + 1 / 2.6 of the content)
SMALL = 64


def stored_keys(client, blob_id, version):
    """Keys of the chunks that hold the stripes of one version, each with the
    stored run and the index in it of that chunk."""
    keys = {}
    for run, first, last in client.metadata.extents_in_range(blob_id, version, 0, sys.maxsize):
        held = run.stored
        for index in range(first - run.first_stripe, last - run.first_stripe + 1):
            keys[ChunkKey(held.blob_id, held.first_chunk_id + index)] = (held, index)
    return keys


def reference_collect(client, keep_latest, blob_ids=None, pinned=None):
    pinned = {k: set(v) for k, v in (pinned or {}).items()}
    report = GCReport()
    blobs = client.version_manager.blobs()
    targets = set(blob_ids) if blob_ids is not None else {info.blob_id for info in blobs}

    plans = {}
    for info in blobs:
        all_versions = [rec.version for rec in info.versions]
        if info.blob_id not in targets or len(all_versions) <= keep_latest:
            plans[info.blob_id] = (all_versions, [])
            continue
        keep_set = set(all_versions[-keep_latest:]) | pinned.get(info.blob_id, set())
        keep = [v for v in all_versions if v in keep_set]
        drop = [v for v in all_versions if v not in keep_set]
        plans[info.blob_id] = (keep, drop)
        report.examined_blobs += 1

    def referenced(which):
        keys = {}
        for blob_id, plan in plans.items():
            for version in plan[which]:
                keys.update(stored_keys(client, blob_id, version))
        return keys

    dropped = referenced(1)
    for key in sorted(dropped.keys() - referenced(0).keys()):
        run, index = dropped[key]
        chunks, nbytes = client.release(run, index, index + 1)
        report.deleted_chunks += chunks
        report.reclaimed_bytes += nbytes

    for blob_id, (keep, drop) in plans.items():
        if not drop:
            continue
        info = client.version_manager.get(blob_id)
        for version in drop:
            client.metadata.drop_version(blob_id, version)
            report.dropped_versions.append((blob_id, version))
        info.versions = [rec for rec in info.versions if rec.version in set(keep)]
    return report


def outcome(report):
    """What both collectors report of a pass."""
    return (
        report.examined_blobs,
        report.dropped_versions,
        report.deleted_chunks,
        report.reclaimed_bytes,
    )


def small_store(providers, replication, codec, capacity=10**18):
    """A client over ``providers`` fresh providers, and those providers."""
    manager = ProviderManager(replication=replication)
    registered = [DataProvider(f"node-{index}", capacity=capacity) for index in range(providers)]
    for provider in registered:
        manager.register(provider)
    dedup = None if codec is None else DedupEngine(make_codec(codec))
    return BlobClient(providers=manager, default_chunk_size=SMALL, dedup=dedup), registered


def piece_source(seed, length, synthetic):
    if synthetic:
        return SyntheticBytes(("gc", seed), length)
    # a handful of constant fills: whole stripes repeat, so the dedup layer shares them
    return LiteralBytes(bytes([seed % 4 + 1]) * length)


def apply_history(client, blobs, ops, model):
    """Replay ``ops`` on ``client``; ``model`` maps (blob, version) to its bytes."""
    ids = []
    for _ in range(blobs):
        ids.append(client.create_blob())
        model[(ids[-1], 0)] = b""
    for op in ops:
        if op[0] == "clone":
            _kind, blob_pick, version_pick = op
            blob = ids[blob_pick % len(ids)]
            version = version_pick % (client.latest_version(blob) + 1)
            ids.append(client.clone(blob, version=version))
            model[(ids[-1], 0)] = model[(blob, version)]
        else:
            _kind, blob_pick, pieces = op
            blob = ids[blob_pick % len(ids)]
            content = bytearray(model[(blob, client.latest_version(blob))])
            batch = []
            for offset, length, seed, synthetic in pieces:
                source = piece_source(seed, length, synthetic)
                batch.append((offset, source))
                if length:
                    content.extend(bytes(max(0, offset + length - len(content))))
                    content[offset : offset + length] = source.read()
            model[(blob, client.write_batch(blob, batch).version)] = bytes(content)
    return ids


def read_outcome(client, blob, version):
    try:
        return client.read(blob, version=version).read()
    except (ChunkNotFoundError, VersionNotFoundError) as error:
        return type(error), str(error)


def observable_state(client, providers, versions):
    return {
        "used": [p.used_bytes for p in providers],
        # per provider, the chunks it holds of each run, by table key
        "runs": [{key: run.held[p.provider_id] for key, run in p._runs.items()} for p in providers],
        "total": client.providers.total_used_bytes,
        "published": [
            (info.blob_id, [rec.version for rec in info.versions])
            for info in client.version_manager.blobs()
        ],
        "reads": {key: read_outcome(client, *key) for key in versions},
    }


PICK = st.integers(0, 10**6)
GC_PIECE = st.one_of(
    # whole stripes, aligned: overwrites whole runs or parts of runs
    st.tuples(
        st.integers(0, 6).map(lambda s: s * SMALL),
        st.integers(1, 8).map(lambda n: n * SMALL),
        PICK,
        st.booleans(),
    ),
    # an unaligned window
    st.tuples(st.integers(0, 7 * SMALL), st.integers(1, 4 * SMALL), PICK, st.booleans()),
    # aligned, ending short of a stripe boundary
    st.tuples(
        st.integers(0, 6).map(lambda s: s * SMALL),
        st.integers(1, 5 * SMALL).filter(lambda n: n % SMALL),
        PICK,
        st.booleans(),
    ),
)
GC_OP = st.one_of(
    st.tuples(st.just("write"), PICK, st.lists(GC_PIECE, min_size=1, max_size=3)),
    st.tuples(st.just("write"), PICK, st.lists(GC_PIECE, min_size=1, max_size=3)),
    st.tuples(st.just("write"), PICK, st.lists(GC_PIECE, min_size=1, max_size=3)),
    st.tuples(st.just("clone"), PICK, PICK),
)


@settings(max_examples=250, deadline=None)
@given(
    providers=st.integers(1, 5),
    replication=st.integers(1, 3),
    codec=st.sampled_from([None, "identity", "zlib"]),
    blobs=st.integers(1, 3),
    ops=st.lists(GC_OP, min_size=3, max_size=12),
    keep_latest=st.sampled_from([1, 1, 2, 3]),
    pins=st.lists(st.tuples(PICK, PICK), max_size=3),
    subset=st.one_of(st.none(), st.lists(PICK, min_size=1, max_size=3)),
    failed=st.one_of(st.none(), PICK),
)
def test_collection_matches_the_by_key_collector(
    providers, replication, codec, blobs, ops, keep_latest, pins, subset, failed
):
    model = {}
    stores = [small_store(providers, replication, codec) for _ in range(2)]
    twins = [client for client, _registered in stores]
    (ids, _same) = [apply_history(client, blobs, ops, model) for client in twins]
    for client in twins:
        for (blob, version), data in model.items():
            assert client.read(blob, version=version).read() == data
    latest = {blob: twins[0].latest_version(blob) for blob in ids}
    pinned = {}
    for blob_pick, version_pick in pins:
        blob = ids[blob_pick % len(ids)]
        pinned.setdefault(blob, []).append(version_pick % (latest[blob] + 1))
    blob_ids = None if subset is None else [ids[pick % len(ids)] for pick in subset]
    if failed is not None:
        for _client, registered in stores:
            registered[failed % providers].fail()

    def state_of(twin):
        return observable_state(*stores[twin], model)

    assert state_of(0) == state_of(1)

    collector = SnapshotGarbageCollector(SimpleNamespace(client=twins[0]), keep_latest)
    report = collector.collect(blob_ids=blob_ids, pinned=pinned)
    expected = reference_collect(twins[1], keep_latest, blob_ids=blob_ids, pinned=pinned)
    assert outcome(report) == outcome(expected)
    state = state_of(0)
    assert state == state_of(1)

    dropped = set(report.dropped_versions)
    for key, data in model.items():
        if key in dropped:
            assert state["reads"][key][0] is VersionNotFoundError
        elif failed is None:
            assert state["reads"][key] == data
    for blob in ids:
        if blob_ids is None or blob in blob_ids:
            kept = [version for b, version in model if b == blob and (b, version) not in dropped]
            must = set(range(latest[blob] + 1)[-keep_latest:]) | set(pinned.get(blob, ()))
            assert set(kept) == must

    again = collector.collect(blob_ids=blob_ids, pinned=pinned)
    assert (again.dropped_versions, again.deleted_chunks, again.reclaimed_bytes) == ([], 0, 0)
    assert state_of(0) == state


@pytest.mark.parametrize("codec", [None, "identity"])
@pytest.mark.parametrize("replication", [1, 2])
def test_a_batch_that_fails_on_its_last_run_leaves_the_store_as_it_was(replication, codec):
    client, providers = small_store(3, replication, codec, capacity=12 * SMALL)
    blob = client.create_blob()
    fills = [LiteralBytes(bytes([fill]) * SMALL) for fill in (1, 2, 3, 4)]
    client.write_batch(blob, [(index * SMALL, fill) for index, fill in enumerate(fills)])

    def snapshot():
        tables = [dict(provider._runs) for provider in providers]
        return {
            "tables": tables,
            "exceptions": [(run, run.dropped) for table in tables for run in table.values()],
            "used": [p.used_bytes for p in providers],
            "indexed": client.dedup and len(client.dedup.index),
            "latest": client.latest_version(blob),
            "content": client.read(blob).read(),
        }

    before = snapshot()
    room = sum(p.capacity - p.used_bytes for p in providers) // (replication * SMALL)
    # stripe 0 repeats stored content (a hit under dedup), a first run of fresh
    # stripes fits, and the run after the gap is a stripe more than is left
    batch = [
        (0, fills[2]),
        (SMALL, SyntheticBytes("fits", 2 * SMALL)),
        (6 * SMALL, SyntheticBytes("overflows", (room - 1) * SMALL)),
    ]
    with pytest.raises(StorageError, match="no live data provider has room"):
        client.write_batch(blob, batch)
    assert snapshot() == before
    assert all(run.payload is not None for table in before["tables"] for run in table.values())
    # and the store still takes what does fit
    client.write_batch(blob, batch[:2])
    assert client.read(blob, 0, SMALL).read() == fills[2].read()


def test_collecting_whole_runs_never_looks_a_chunk_up(monkeypatch):
    """Whole-image overwrites without dedup: every obsoleted run leaves whole,
    by identity -- no by-key question is asked of any provider."""
    client, providers = small_store(24, 1, None)
    blobs = [client.create_blob() for _ in range(24)]
    obsoleted = []
    for version in range(3):
        for blob in blobs:
            result = client.write_batch(blob, [(0, SyntheticBytes((blob, version), 800 * SMALL))])
            if version < 2:
                obsoleted += [run.stored for run in result.runs]
    assert len(obsoleted) == 24 * 2 and all(len(run.held) == 24 for run in obsoleted)

    lookups = []
    find = DataProvider._find

    def spy(self, key):
        lookups.append(key)
        return find(self, key)

    monkeypatch.setattr(DataProvider, "_find", spy)
    report = SnapshotGarbageCollector(SimpleNamespace(client=client), keep_latest=1).collect()
    monkeypatch.undo()
    assert lookups == []
    assert report.deleted_chunks == 24 * 2 * 800
    assert report.reclaimed_bytes == 24 * 2 * 800 * SMALL
    assert len(report.dropped_versions) == 24 * 3
    for run in obsoleted:
        assert len(run.held) == 0 and run.payload is None and run.dropped is None
        assert all(run not in provider._runs.values() for provider in providers)
    assert client.providers.total_used_bytes == 24 * 800 * SMALL
    for blob in blobs:
        latest = SyntheticBytes((blob, 2), 800 * SMALL)
        assert client.read(blob).fingerprint() == latest.fingerprint()


def test_compressed_chunks_are_reclaimed_at_their_stored_size():
    client, _providers = small_store(3, 2, "zlib")
    blob = client.create_blob()
    old = client.write_batch(blob, [(0, SyntheticBytes("old", 4 * SMALL))])
    client.write_batch(blob, [(0, SyntheticBytes("new", 4 * SMALL))])
    assert 0 < old.bytes_written < 4 * SMALL  # what one replica of the four chunks occupies
    before = client.providers.total_used_bytes
    report = SnapshotGarbageCollector(SimpleNamespace(client=client), keep_latest=1).collect()
    assert report.deleted_chunks == 2 * 4
    assert report.reclaimed_bytes == 2 * old.bytes_written
    assert client.providers.total_used_bytes == before - report.reclaimed_bytes
