"""Range-read matrix and chunking invariants of the BlobSeer client.

Two ports from the blob-store suites in ``SNIPPETS.md``: a parametrised
range-read matrix (layouts x windows x sources) on :meth:`BlobClient.read`
against a plain ``bytearray`` model, and the chunking invariants (reassembly
identity, stored-length bounds, empty input, ``chunk_size +- 1``) on
:meth:`BlobClient.write_batch`.  The chunk-id range helpers the prefetch
cache keeps its state in are held to a set-of-ints model.
"""

import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blobseer import BlobClient, DataProvider, ProviderManager
from repro.dedup import DedupEngine
from repro.util import LiteralBytes
from repro.util.ranges import add_range, overlap

#: (name, stripes, chunk_size)
LAYOUTS = [
    ("single_big_chunk", 1, 1024),
    ("multiple_small_chunks", 3, 5),
    ("one_small_chunk", 1, 5),
    ("many_small_chunks", 9, 4),
]


def make_cluster(num_providers=4, replication=1, chunk_size=1024, dedup=None):
    """A client over ``num_providers`` fresh providers, and those providers by id."""
    manager = ProviderManager(replication=replication)
    providers = {f"p{i}": DataProvider(f"p{i}") for i in range(num_providers)}
    for provider in providers.values():
        manager.register(provider)
    return BlobClient(providers=manager, default_chunk_size=chunk_size, dedup=dedup), providers


def make_client(num_providers=4, replication=1, chunk_size=1024, dedup=None):
    return make_cluster(num_providers, replication, chunk_size, dedup)[0]


def pattern(size, shift=0):
    """A repeating pattern whose period (26) is no multiple of any chunk size used."""
    charset = b"abcdefghijklmnopqrstuvwxyz"
    return bytes(charset[(shift + i) % len(charset)] for i in range(size))


# -- sources: each returns (client, blob_id, version, expected bytes) -------------------------


def _latest(stripes, chunk_size):
    client = make_client(chunk_size=chunk_size)
    data = pattern(stripes * chunk_size)
    blob = client.create_blob()
    version = client.write_batch(blob, [(0, LiteralBytes(data))]).version
    return client, blob, version, data


def _overwrite(stripes, chunk_size):
    """Version 1 holds the pattern, version 2 overwrites its middle third."""
    client, blob, old_version, data = _latest(stripes, chunk_size)
    size = len(data)
    patch = b"#" * max(1, size // 3)
    model = bytearray(data)
    model[size // 3 : size // 3 + len(patch)] = patch
    new_version = client.write_batch(blob, [(size // 3, LiteralBytes(patch))]).version
    return client, blob, old_version, new_version, data, bytes(model)


def _older_version(stripes, chunk_size):
    client, blob, old_version, _new, data, _model = _overwrite(stripes, chunk_size)
    return client, blob, old_version, data


def _overwritten_latest(stripes, chunk_size):
    client, blob, _old, new_version, _data, model = _overwrite(stripes, chunk_size)
    return client, blob, new_version, model


def _clone_shared(stripes, chunk_size):
    client, blob, _version, data = _latest(stripes, chunk_size)
    clone = client.clone(blob)
    return client, clone, client.latest_version(clone), data


def _clone_diverged(stripes, chunk_size):
    client, clone, _version, data = _clone_shared(stripes, chunk_size)
    model = bytearray(data)
    model[-2:] = b"!!"
    version = client.write_batch(clone, [(len(data) - 2, LiteralBytes(b"!!"))]).version
    return client, clone, version, bytes(model)


def _origin_after_clone_diverged(stripes, chunk_size):
    client, blob, version, data = _latest(stripes, chunk_size)
    clone = client.clone(blob)
    client.write_batch(clone, [(0, LiteralBytes(b"?" * len(data)))])
    return client, blob, version, data


def _dedup_alias(stripes, chunk_size):
    """A second BLOB with identical content: every stripe shares a stored run."""
    client = make_client(chunk_size=chunk_size, dedup=DedupEngine())
    data = pattern(stripes * chunk_size)
    client.write_batch(client.create_blob(), [(0, LiteralBytes(data))])
    blob = client.create_blob()
    result = client.write_batch(blob, [(0, LiteralBytes(data))])
    assert result.dedup_hits == stripes and result.bytes_written == 0
    return client, blob, result.version, data


def _sparse_hole(stripes, chunk_size):
    """Nothing was ever written below ``size``: the front half reads as zeros."""
    client = make_client(chunk_size=chunk_size)
    size = stripes * chunk_size
    data = pattern(size)
    blob = client.create_blob()
    version = client.write_batch(blob, [(size, LiteralBytes(data))]).version
    return client, blob, version, bytes(size) + data


def _surviving_replica(stripes, chunk_size):
    """The first chunk's preferred provider is gone; the second replica serves."""
    client, providers = make_cluster(num_providers=4, replication=2, chunk_size=chunk_size)
    data = pattern(stripes * chunk_size)
    blob = client.create_blob()
    result = client.write_batch(blob, [(0, LiteralBytes(data))])
    providers[result.runs[0].providers[0][0]].fail()
    return client, blob, result.version, data


SOURCES = {
    "latest": _latest,
    "older_version": _older_version,
    "overwritten_latest": _overwritten_latest,
    "clone_shared": _clone_shared,
    "clone_diverged": _clone_diverged,
    "origin_after_clone_diverged": _origin_after_clone_diverged,
    "dedup_alias": _dedup_alias,
    "sparse_hole": _sparse_hole,
    "surviving_replica": _surviving_replica,
}


# -- windows: (offset, length) for a blob of ``size`` bytes -----------------------------------

WINDOWS = {
    "full": lambda size, chunk: (0, size),
    "first_half": lambda size, chunk: (0, size // 2),
    "tail_before_end": lambda size, chunk: (size - size // 2, size // 2),
    # two bytes around the first stripe boundary inside the blob (its middle if none)
    "straddle_boundary": lambda size, chunk: (min(chunk, size // 2) - 1, 2),
    "first_byte": lambda size, chunk: (0, 1),
    "last_byte": lambda size, chunk: (size - 1, 1),
}


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("layout", LAYOUTS, ids=[name for name, _n, _c in LAYOUTS])
def test_range_read_matrix(layout, window, source):
    _name, stripes, chunk_size = layout
    client, blob, version, expected = SOURCES[source](stripes, chunk_size)
    assert client.size(blob, version) == len(expected)
    offset, length = WINDOWS[window](len(expected), chunk_size)
    got = client.read(blob, offset, length, version=version)
    assert got.size == length
    assert got.read() == expected[offset : offset + length]


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("layout", LAYOUTS[1:], ids=[name for name, _n, _c in LAYOUTS[1:]])
def test_every_window_of_small_blobs(layout, source):
    """Exhaustive (offset, length) sweep over the layouts small enough for it."""
    _name, stripes, chunk_size = layout
    client, blob, version, expected = SOURCES[source](stripes, chunk_size)
    for offset in range(len(expected) + 1):
        for length in range(len(expected) - offset + 1):
            got = client.read(blob, offset, length, version=version).read()
            assert got == expected[offset : offset + length], (offset, length)


# -- chunking invariants of write_batch --------------------------------------------------------


def stored_chunks(client, blob, version=None):
    """(descriptor, stored payload bytes) of every stripe, in stripe order."""
    version = client.latest_version(blob) if version is None else version
    out = []
    for run, first, last in client.metadata.extents_in_range(blob, version, 0, sys.maxsize):
        for stripe in range(first, last + 1):
            desc, chunk = run.descriptor(stripe), run.stored.chunk(stripe - run.first_stripe)
            assert chunk.key == desc.key
            out.append((desc, chunk.data.read()))
    return out


@pytest.mark.parametrize("chunk_size", [1, 7, 32, 256])
def test_empty_write_stores_no_chunk_and_no_stripe(chunk_size):
    client = make_client(chunk_size=chunk_size)
    blob = client.create_blob()
    for result in (
        client.write_batch(blob, [(0, LiteralBytes(b""))]),
        client.write_batch(blob, []),
        client.write_batch(blob, [(0, LiteralBytes(b"")), (0, LiteralBytes(b""))]),
    ):
        assert result.runs == [] and result.chunk_count == 0
        assert result.bytes_written == 0 and result.logical_bytes == 0
        assert client.metadata.extents_in_range(blob, result.version, 0, sys.maxsize) == []
    assert client.storage_footprint() == 0
    assert client.size(blob) == 0
    assert client.read(blob).read() == b""


@pytest.mark.parametrize("chunk_size", [1, 7, 32, 256])
def test_single_byte_and_boundary_sizes(chunk_size):
    expectations = [
        (1, 1),
        (chunk_size - 1, 1 if chunk_size > 1 else 0),
        (chunk_size, 1),
        (chunk_size + 1, 2),
    ]
    for size, chunk_count in expectations:
        client = make_client(chunk_size=chunk_size)
        blob = client.create_blob()
        data = pattern(size, shift=size)
        result = client.write_batch(blob, [(0, LiteralBytes(data))])
        assert result.chunk_count == chunk_count
        chunks = stored_chunks(client, blob)
        assert len(chunks) == chunk_count
        for desc, payload in chunks:
            assert 0 < len(payload) <= chunk_size
            assert desc.length == len(payload)
        assert [d.stripe_index for d, _p in chunks] == list(range(chunk_count))
        assert b"".join(payload for _d, payload in chunks) == data
        assert result.bytes_written == result.logical_bytes == size
        assert client.read(blob).read() == data


@pytest.mark.parametrize("chunk_size", [64, 256, 1024])
def test_large_blob_chunking_invariants(chunk_size):
    rnd = random.Random(42)
    length = 123_456
    data = rnd.randbytes(length)
    client = make_client(chunk_size=chunk_size)
    blob = client.create_blob()
    result = client.write_batch(blob, [(0, LiteralBytes(data))])
    chunks = stored_chunks(client, blob)
    assert len(chunks) == result.chunk_count == -(-length // chunk_size)
    for index, (desc, payload) in enumerate(chunks):
        assert desc.stripe_index == index
        assert 0 < len(payload) <= chunk_size, f"chunk {index} has {len(payload)} bytes"
    # every chunk but the last is full
    assert all(len(payload) == chunk_size for _d, payload in chunks[:-1])
    assert b"".join(payload for _d, payload in chunks) == data
    assert result.bytes_written == length
    assert result.metadata_nodes >= len(chunks)


@pytest.mark.parametrize("chunk_size", [7, 32])
def test_batch_of_aligned_pieces_reassembles(chunk_size):
    """The COMMIT shape: many stripe-aligned blocks, some gaps, one version."""
    client = make_client(chunk_size=chunk_size)
    blob = client.create_blob()
    stripes = [0, 1, 2, 5, 6, 9]
    pieces = [(s * chunk_size, LiteralBytes(pattern(chunk_size, shift=s))) for s in stripes]
    # a short block at the very end of the image
    pieces.append((11 * chunk_size, LiteralBytes(pattern(3, shift=11))))
    result = client.write_batch(blob, pieces)
    model = bytearray(11 * chunk_size + 3)
    for offset, data in pieces:
        model[offset : offset + data.size] = data.read()
    assert client.size(blob) == len(model)
    assert client.read(blob).read() == bytes(model)
    chunks = stored_chunks(client, blob)
    assert [d.stripe_index for d, _p in chunks] == stripes + [11]
    written = [
        run.descriptor(stripe).key
        for run in result.runs
        for stripe in range(run.first_stripe, run.last_stripe + 1)
    ]
    assert written == [d.key for d, _p in chunks]
    for desc, payload in chunks:
        assert 0 < len(payload) <= chunk_size
        assert desc.created_by == (blob, result.version)
    # a second commit over part of it shadows only what it touches
    second = client.write_batch(
        blob, [(s * chunk_size, LiteralBytes(pattern(chunk_size, shift=20 + s))) for s in (1, 2, 3)]
    )
    for s in (1, 2, 3):
        model[s * chunk_size : (s + 1) * chunk_size] = pattern(chunk_size, shift=20 + s)
    assert client.read(blob).read() == bytes(model)
    assert client.read(blob, version=result.version).read() != bytes(model)
    owners = {d.stripe_index: d.created_by for d, _p in stored_chunks(client, blob)}
    assert owners[0] == (blob, result.version) and owners[5] == (blob, result.version)
    assert all(owners[s] == (blob, second.version) for s in (1, 2, 3))


# -- chunk-id range helpers against a set of ints ------------------------------------------------

#: ``(first, stop)`` pairs over a narrow id space, so that ranges overlap,
#: nest, touch and sit one id apart often; a zero length is an empty range
RANGE_LISTS = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 8)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=12,
)


def _merged(pairs):
    ranges = []
    for first, stop in pairs:
        add_range(ranges, first, stop)
    return ranges


def _ids(pairs):
    return {i for first, stop in pairs for i in range(first, stop)}


@settings(max_examples=200)
@given(RANGE_LISTS, RANGE_LISTS)
@example([(0, 3), (3, 5)], [(5, 6)])  # touching
@example([(2, 4), (0, 10)], [(3, 4)])  # nested, the inner one first
@example([(0, 3), (4, 6), (2, 3)], [(3, 4)])  # one id apart, then re-covered
@example([(5, 5), (7, 7)], [(5, 6), (6, 6)])  # empty
def test_property_chunk_ranges_are_their_set_of_ids(pairs, other_pairs):
    ranges, other = _merged(pairs), _merged(other_pairs)
    ids, other_ids = _ids(pairs), _ids(other_pairs)
    for merged in (ranges, other):
        assert all(first < stop for first, stop in merged)
        assert all(a[1] < b[0] for a, b in zip(merged, merged[1:]))  # sorted, none touch
    assert _ids(ranges) == ids and _ids(other) == other_ids
    assert sum(stop - first for first, stop in ranges) == len(ids)
    assert overlap(ranges, other) == overlap(other, ranges) == len(ids & other_ids)
    assert _merged(ranges + other) == _merged(other + ranges)
    assert _ids(_merged(ranges + other)) == ids | other_ids
