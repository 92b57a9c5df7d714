"""The run plane of BlobSeer against per-chunk / per-stripe oracles.

``ProviderManager.place_many`` is held to the ranking its docstring states,
evaluated from scratch for every chunk; ``MetadataStore``'s run leaves are
held to a segment tree with one leaf per stripe (the implementation they
replaced, kept here as the reference).
"""

import bisect
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blobseer import (
    BlobClient,
    Chunk,
    ChunkKey,
    DataProvider,
    MetadataStore,
    ProviderManager,
    StripeRun,
)
from repro.blobseer.metadata import ChunkDescriptor
from repro.blobseer.provider import StoredRun
from repro.util import LiteralBytes
from repro.util.errors import StorageError

# -- placement ----------------------------------------------------------------------------------


class PlacementModel:
    """Providers as plain records, ranked from scratch for every chunk."""

    def __init__(self, replication):
        self.replication = replication
        self.providers = []  # registration order: [id, capacity, used, alive]
        self.tie = 0

    def register(self, provider_id, capacity):
        self.providers.append([provider_id, capacity, 0, True])

    def used(self):
        return [used for _id, _capacity, used, _alive in self.providers]

    def place(self, size):
        """``sorted(live_with_room, key=(used, (crc + tie) % n, slot))[:replication]``."""
        room = [(slot, p) for slot, p in enumerate(self.providers) if p[3] and p[1] - p[2] >= size]
        if not room:
            return None
        n = len(room)
        room.sort(key=lambda sp: (sp[1][2], (zlib.crc32(sp[1][0].encode()) + self.tie) % n, sp[0]))
        self.tie += 1
        return [p for _slot, p in room[: self.replication]]

    def store(self, size):
        chosen = self.place(size)
        if chosen is None:
            return None
        for provider in chosen:
            provider[2] += size
        return tuple(p[0] for p in chosen)


def sized_chunk(chunk_id, size):
    """A one-byte chunk whose footprint is ``size``."""
    return Chunk(ChunkKey(1, chunk_id), LiteralBytes(b"x"), stored_size=size)


def run_to_store(spec):
    """``(payload, stripe length, stored size, chunk sizes)`` of a run spec:
    ``count`` chunks of ``size`` bytes stored verbatim, the last ``last`` bytes
    long, or ``count`` chunks of one byte stored at ``size`` bytes each."""
    count, size, last, verbatim = spec
    if verbatim and size:
        last = min(last, size)
        payload = LiteralBytes(bytes((count - 1) * size + last))
        return payload, size, None, [size] * (count - 1) + [last]
    return LiteralBytes(bytes(count)), 1, size, [size] * count


CAPACITIES = st.sampled_from([40, 150, 10**9])
RUN = st.tuples(st.integers(1, 30), st.integers(0, 60), st.integers(1, 60), st.booleans())
OPERATIONS = st.one_of(
    st.tuples(st.just("store"), RUN),
    st.tuples(st.just("place"), st.integers(0, 60)),
    st.tuples(st.just("delete"), st.integers(0, 10**6)),
    st.tuples(st.just("fail"), st.integers(0, 10**6)),
    st.tuples(st.just("register"), CAPACITIES),
)


@settings(max_examples=150, deadline=None)
# zero-size chunks move nobody up a level: the tie-break, not usage, spreads them
@example(capacities=[40, 40], replication=1, operations=[("store", (2, 0, 1, False))])
@given(
    capacities=st.lists(CAPACITIES, min_size=1, max_size=40),
    replication=st.integers(1, 3),
    operations=st.lists(OPERATIONS, min_size=1, max_size=25),
)
def test_place_many_matches_the_ranking_oracle(capacities, replication, operations):
    manager = ProviderManager(replication=replication)
    model = PlacementModel(replication)
    providers = [DataProvider(f"node-{index}", capacity=c) for index, c in enumerate(capacities)]
    for provider, capacity in zip(providers, capacities):
        manager.register(provider)
        model.register(provider.provider_id, capacity)
    stored = {}  # (run, chunk index) -> size; every chunk not released yet
    next_id = 0
    for name, arg in operations:
        if name == "store":
            payload, stripe_length, stored_size, sizes = run_to_store(arg)
            before = [list(p) for p in model.providers]
            expected = []
            for size in sizes:
                placed = model.store(size)
                if placed is None:
                    break
                expected.append(placed)
            if len(expected) < len(sizes):
                # No room for one of them: nothing of the run is stored, and the
                # tie stream stands where the last successful placement left it.
                model.providers = before
                with pytest.raises(StorageError):
                    manager.store_run(1, next_id, payload, stripe_length, stored_size)
            else:
                run = manager.store_run(1, next_id, payload, stripe_length, stored_size)
                assert list(run.placements) == expected
                stored.update(((run, index), size) for index, size in enumerate(sizes))
            next_id += len(sizes)
        elif name == "place":
            expected = model.place(arg)
            if expected is None:
                with pytest.raises(StorageError):
                    manager.place(ChunkKey(1, 0), arg)
            else:
                decision = manager.place(ChunkKey(1, 0), arg)
                assert decision.providers == [p[0] for p in expected]
        elif name == "delete" and stored:
            run, index = list(stored)[arg % len(stored)]
            size = stored.pop((run, index))
            manager.release(run, index, index + 1)
            for provider_id in run.placements[index]:
                record = next(p for p in model.providers if p[0] == provider_id)
                if record[3]:  # a failed provider lost it already
                    record[2] -= size
        elif name == "fail":
            slot = arg % len(model.providers)
            providers[slot].fail()
            record = model.providers[slot]
            record[2], record[3] = 0, False
        elif name == "register":
            providers.append(DataProvider(f"node-{len(model.providers)}", capacity=arg))
            manager.register(providers[-1])
            model.register(providers[-1].provider_id, arg)
        assert [p.used_bytes for p in providers] == model.used()
        assert manager._rr == model.tie


def index_matches_the_providers(manager):
    """A placement index that is not stale files every live provider at its
    usage, in ``(crc % live, slot)`` rank order within a level."""
    if manager._index_stale:
        return
    slots = manager._slots
    live = [p for p in slots if p.alive]
    levels = {}
    for slot, provider in enumerate(slots):
        if provider.alive:
            assert manager._usage[slot] == provider.used_bytes
            rank = (zlib.crc32(provider.provider_id.encode()) % len(live)) * len(slots) + slot
            levels.setdefault(provider.used_bytes, []).append(rank)
    assert manager._levels == {used: sorted(ranks) for used, ranks in levels.items()}
    assert manager._level_keys == sorted(levels)


#: ``(name, pick, pick)``; most are stores, of a run 1 .. 5 x providers chunks
#: long, most of them of the example's own size
UNIFORM_OPERATIONS = st.tuples(
    st.sampled_from(["store"] * 5 + ["place", "release", "fail", "register"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)


@settings(max_examples=200, deadline=None)
# four providers with room for two chunks each start a cycle; two steps into
# it, the one that took a chunk has room for one, so the cycle ends chunk by chunk
@example(
    providers=4,
    capacities=[60] * 8,
    replication=1,
    size=5,
    operations=[
        ("store", 19, 0),
        ("store", 19, 0),
        ("store", 0, 0),
        ("store", 1, 0),
        ("store", 3, 0),
    ],
)
# a zero-size chunk between two chunks of a cycle advances the tie, not the cycle
@example(
    providers=3,
    capacities=[10**9] * 8,
    replication=1,
    size=5,
    operations=[("store", 0, 0), ("store", 0, 4), ("store", 0, 0)],
)
@given(
    providers=st.integers(1, 8),
    capacities=st.lists(st.sampled_from([60, 400, 10**9, 10**9]), min_size=8, max_size=8),
    replication=st.sampled_from([1, 1, 1, 2]),
    size=st.sampled_from([5, 1, 8]),
    operations=st.lists(UNIFORM_OPERATIONS, min_size=4, max_size=30),
)
def test_uniform_runs_place_like_the_ranking_oracle(
    providers, capacities, replication, size, operations
):
    """Runs of equal chunks, several times the provider count long, one after
    another and between releases, failures, registrations and one-chunk
    decisions: every chunk lands where the ranking puts it, and the usage,
    the tie stream and the index agree with the model after every step."""
    manager = ProviderManager(replication=replication)
    model = PlacementModel(replication)
    capacities = capacities[:providers]
    registered = [DataProvider(f"node-{i}", capacity=c) for i, c in enumerate(capacities)]
    for provider, capacity in zip(registered, capacities):
        manager.register(provider)
        model.register(provider.provider_id, capacity)
    runs = []  # (stored run, chunk size)
    held = set()  # (run number, chunk index) of every chunk not released yet
    next_id = 0
    for name, arg, extra in operations:
        if name == "store":
            count = 1 + arg % (5 * len(model.providers))
            chunk = [size, size, size, size, 0, 1, 8][extra % 7]
            payload = LiteralBytes(bytes(count))
            before = [list(p) for p in model.providers]
            expected = []
            for _ in range(count):
                placed = model.store(chunk)
                if placed is None:
                    break
                expected.append(placed)
            if len(expected) < count:
                model.providers = before
                with pytest.raises(StorageError):
                    manager.store_run(1, next_id, payload, 1, chunk)
            else:
                run = manager.store_run(1, next_id, payload, 1, chunk)
                assert list(run.placements) == expected
                held.update((len(runs), index) for index in range(count))
                runs.append((run, chunk))
            next_id += count
        elif name == "place":
            chunk = [0, 5, 9][arg % 3]
            expected = model.place(chunk)
            if expected is None:
                with pytest.raises(StorageError):
                    manager.place(ChunkKey(1, 0), chunk)
            else:
                decision = manager.place(ChunkKey(1, 0), chunk)
                assert decision.providers == [p[0] for p in expected]
        elif name == "release" and runs:
            number = arg % len(runs)
            run, chunk = runs[number]
            first = extra % len(run.placements)
            stop = first + 1 + arg % (len(run.placements) - first)
            manager.release(run, first, stop)
            for index in range(first, stop):
                if (number, index) in held:
                    held.remove((number, index))
                    for provider_id in run.placements[index]:
                        record = next(p for p in model.providers if p[0] == provider_id)
                        if record[3]:
                            record[2] -= chunk
        elif name == "fail":
            slot = arg % len(model.providers)
            registered[slot].fail()
            record = model.providers[slot]
            record[2], record[3] = 0, False
        elif name == "register":
            provider_id, capacity = f"node-{len(model.providers)}", [60, 400, 10**9][arg % 3]
            registered.append(DataProvider(provider_id, capacity=capacity))
            manager.register(registered[-1])
            model.register(provider_id, capacity)
        assert [p.used_bytes for p in registered] == model.used()
        assert manager._rr == model.tie
        index_matches_the_providers(manager)


def test_one_chunk_wrappers_follow_the_same_sequence():
    """``place``/``store_replicated`` are ``place_many``/``store_run`` of one chunk."""
    bulk, single = ProviderManager(replication=2), ProviderManager(replication=2)
    held = {}
    for manager in (bulk, single):
        held[manager] = [DataProvider(f"p{index}") for index in range(7)]
        for provider in held[manager]:
            manager.register(provider)
    sizes = [10, 10, 3, 10, 0, 25, 10, 10, 10, 4]
    chunks = [sized_chunk(i, size) for i, size in enumerate(sizes)]
    placements = [
        bulk.store_run(1, i, chunk.data, 1, chunk.stored_size).placements[0]
        for i, chunk in enumerate(chunks)
    ]
    assert [tuple(single.store_replicated(c).providers) for c in chunks] == placements
    assert [p.used_bytes for p in held[single]] == [p.used_bytes for p in held[bulk]]
    # a decision alone reserves nothing: asking twice moves only the tie-break
    first = single.place(ChunkKey(9, 1), 10).providers
    assert bulk.place_many([10]) == [tuple(first)]
    assert [p.used_bytes for p in held[single]] == [p.used_bytes for p in held[bulk]]


def test_no_room_mid_batch_rolls_back_everything():
    """A COMMIT that overflows the providers stores nothing and burns no tie."""
    manager = ProviderManager(replication=1)
    providers = [DataProvider(f"p{index}", capacity=64) for index in range(3)]
    for provider in providers:
        manager.register(provider)
    client = BlobClient(providers=manager, default_chunk_size=16)
    blob = client.create_blob()
    client.write_batch(blob, [(0, LiteralBytes(b"a" * 48))])  # 3 chunks, one per provider
    used = [p.used_bytes for p in providers]
    tables = [dict(p._runs) for p in providers]
    tie = manager._rr
    # two runs: stripes 8..10 fit (3 x 16), stripes 20..30 need 11 x 16 = 176 > 96 left
    pieces = [(8 * 16, LiteralBytes(b"b" * 48)), (20 * 16, LiteralBytes(b"c" * 176))]
    with pytest.raises(StorageError):
        client.write_batch(blob, pieces)
    assert [p.used_bytes for p in providers] == used
    assert [p._runs for p in providers] == tables
    # 3 placements of the first run + the 6 of the second that still found room
    assert manager._rr == tie + 3 + 6
    assert client.latest_version(blob) == 1
    # the index forgot the reservations: the same bytes fit afterwards
    client.write_batch(blob, [(8 * 16, LiteralBytes(b"d" * 144))])
    assert sum(p.used_bytes for p in providers) == 192


def test_a_uniform_run_is_placed_in_whole_cycles(monkeypatch):
    """400 equal chunks over 120 providers at one level are three cycles and
    a third: no provider is moved one chunk at a time and one cycle is
    computed.  A second run picks that cycle up where the first left it."""
    manager, model = ProviderManager(), PlacementModel(1)
    providers = [DataProvider(f"node-{index}") for index in range(120)]
    for provider in providers:
        manager.register(provider)
        model.register(provider.provider_id, 10**18)
    moves, cycles = [], []
    move, cycle = manager._move, manager._cycle
    monkeypatch.setattr(manager, "_move", lambda *args: moves.append(args) or move(*args))
    monkeypatch.setattr(manager, "_cycle", lambda residue: cycles.append(residue) or cycle(residue))
    first = manager.store_run(1, 0, LiteralBytes(bytes(400)), 1, 64)
    assert moves == [] and len(cycles) == 1
    assert list(first.placements) == [model.store(64) for _ in range(400)]
    second = manager.store_run(1, 400, LiteralBytes(bytes(50)), 1, 64)
    assert moves == [] and len(cycles) == 1
    assert list(second.placements) == [model.store(64) for _ in range(50)]
    assert [p.used_bytes for p in providers] == model.used()
    assert manager._rr == model.tie == 450


@pytest.mark.parametrize(
    "method, args, message",
    [
        ("store_run", (1, 0, LiteralBytes(b"abc"), 0), "stripe length must be >= 1: 0"),
        ("store_run", (1, 0, LiteralBytes(b"abc"), -1), "stripe length must be >= 1: -1"),
        ("store_run", (1, 0, LiteralBytes(b"abc"), 1, -16), "stored size must be >= 0: -16"),
        ("place", (ChunkKey(1, 0), -16), "chunk size must be >= 0: -16"),
    ],
)
def test_an_impossible_size_is_refused_by_value(method, args, message):
    """A stripe length below 1 or a negative footprint is not a run: it is
    refused before anything is placed, and the providers stay empty."""
    manager, provider = ProviderManager(), DataProvider("node-0", capacity=64)
    manager.register(provider)
    with pytest.raises(StorageError, match=f"^{message}$"):
        getattr(manager, method)(*args)
    assert provider.used_bytes == 0 and manager._rr == 0
    manager.store_run(1, 0, LiteralBytes(b"abc"), 1)
    assert provider.used_bytes == 3


# -- metadata: run leaves against one leaf per stripe -----------------------------------------


class _OracleNode:
    __slots__ = ("lo", "hi", "left", "right", "descriptor")

    def __init__(self, lo, hi, left=None, right=None, descriptor=None):
        self.lo, self.hi, self.left, self.right, self.descriptor = lo, hi, left, right, descriptor


class _OracleBuilder:
    """The per-stripe shadowing builder the run leaves replaced."""

    def __init__(self, updates):
        self.updates = updates
        self._sorted_keys = sorted(updates)
        self.new_nodes = 0

    def _touched(self, lo, hi):
        pos = bisect.bisect_left(self._sorted_keys, lo)
        return pos < len(self._sorted_keys) and self._sorted_keys[pos] < hi

    def build(self, node, lo, hi):
        if not self._touched(lo, hi):
            return node
        self.new_nodes += 1
        if hi - lo == 1:
            return _OracleNode(lo, hi, descriptor=self.updates[lo])
        mid = (lo + hi) // 2
        left = self.build(node.left if node else None, lo, mid)
        right = self.build(node.right if node else None, mid, hi)
        return _OracleNode(lo, hi, left=left, right=right)


class OracleStore:
    """``MetadataStore`` with one leaf and one descriptor object per stripe."""

    def __init__(self):
        self.roots = {}
        self.capacity = {}
        self.nodes_allocated = 0

    def create_empty(self, blob_id):
        self.roots[(blob_id, 0)] = None
        self.capacity[(blob_id, 0)] = 1

    def derive_version(self, blob_id, base_version, new_version, updates):
        root, capacity = self.roots[(blob_id, base_version)], self.capacity[(blob_id, base_version)]
        while capacity <= max(updates, default=-1):
            if root is not None:
                root = _OracleNode(0, capacity * 2, left=root)
                self.nodes_allocated += 1
            capacity *= 2
        builder = _OracleBuilder(updates)
        self.roots[(blob_id, new_version)] = builder.build(root, 0, capacity)
        self.capacity[(blob_id, new_version)] = capacity
        self.nodes_allocated += builder.new_nodes
        return builder.new_nodes

    def clone_version(self, src_blob, src_version, dst_blob):
        self.roots[(dst_blob, 0)] = self.roots[(src_blob, src_version)]
        self.capacity[(dst_blob, 0)] = self.capacity[(src_blob, src_version)]

    def descriptors_in_range(self, blob_id, version, first, last):
        out = []

        def collect(node):
            if node is None or last < node.lo or first > node.hi - 1:
                return
            if node.hi - node.lo == 1:
                out.append(node.descriptor)
                return
            collect(node.left)
            collect(node.right)

        collect(self.roots[(blob_id, version)])
        return out


STRIPE_LENGTH = 8


def stripe_run(first, blob, first_chunk_id, placements, last_length, created_by, physical=None):
    """A run of metadata over a stored run that no provider was handed."""
    stored = StoredRun(blob, first_chunk_id, placements, None, STRIPE_LENGTH, last_length)
    return StripeRun(
        first, blob, first_chunk_id, STRIPE_LENGTH, last_length, created_by, stored, physical
    )


#: (first stripe, stripes, length of the last one, physical length of a lone stripe)
RUNS = st.tuples(
    st.integers(0, 44),
    st.integers(1, 20),
    st.integers(1, STRIPE_LENGTH),
    st.sampled_from([None, None, 0, 3]),
)
STEPS = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 10**6), st.lists(RUNS, min_size=0, max_size=4)),
    st.tuples(st.just("clone"), st.integers(0, 10**6), st.just([])),
)


@settings(max_examples=120, deadline=None)
@given(steps=st.lists(STEPS, min_size=1, max_size=10))
def test_run_leaves_match_the_per_stripe_tree(steps):
    """Overwrite head / middle / tail / all of earlier runs, span two of them,
    grow the tree past them, clone and diverge: every query agrees."""
    store, oracle = MetadataStore(), OracleStore()
    store.create_empty(1, 0)
    oracle.create_empty(1)
    latest = {1: 0}  # blob -> latest version
    next_chunk = 1
    for name, pick, specs in steps:
        blob = sorted(latest)[pick % len(latest)]
        if name == "clone":
            clone = max(latest) + 1
            store.clone_version(blob, latest[blob], clone)
            oracle.clone_version(blob, latest[blob], clone)
            latest[clone] = 0
            continue
        version = latest[blob] + 1
        runs, updates, taken = [], {}, set()
        for first, count, last_length, physical in specs:
            if taken & set(range(first, first + count)):
                continue  # runs of one version never overlap
            taken |= set(range(first, first + count))
            if count > 1:
                physical = None
            providers = [(f"p{(first + i) % 5}", f"p{i % 3}") for i in range(count)]
            created = (blob, version)
            runs.append(
                stripe_run(first, blob, next_chunk, providers, last_length, created, physical)
            )
            for i in range(count):
                updates[first + i] = ChunkDescriptor(
                    stripe_index=first + i,
                    length=last_length if i == count - 1 else STRIPE_LENGTH,
                    key=ChunkKey(blob, next_chunk + i),
                    providers=providers[i],
                    created_by=created,
                    physical_length=physical,
                )
            next_chunk += count
        assert store.derive_version(blob, latest[blob], version, runs) == oracle.derive_version(
            blob, latest[blob], version, updates
        )
        latest[blob] = version
    assert store.nodes_allocated == oracle.nodes_allocated
    for blob, newest in latest.items():
        for version in range(newest + 1):
            capacity = oracle.capacity[(blob, version)]
            windows = [(stripe, stripe) for stripe in range(capacity + 2)]
            windows += [(0, capacity), (3, 11), (17, 17), (capacity // 2, capacity - 1)]
            for first, last in windows:
                assert store.descriptors_in_range(
                    blob, version, first, last
                ) == oracle.descriptors_in_range(blob, version, first, last)


def test_overlapping_runs_of_one_version_are_rejected():
    store = MetadataStore()
    store.create_empty(1, 0)
    runs = [
        stripe_run(0, 1, 1, [("p0",)] * 4, last_length=8, created_by=(1, 1)),
        stripe_run(3, 1, 5, [("p0",)] * 2, last_length=8, created_by=(1, 1)),
    ]
    with pytest.raises(StorageError):
        store.derive_version(1, 0, 1, runs)


def _tree_nodes(node):
    return 0 if node is None else 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def test_aligned_commit_builds_log_n_nodes_and_one_run():
    """800 consecutive stripes: one run record, O(log n) tree nodes, and the
    per-stripe node count still reported (it feeds simulated metadata time)."""
    manager = ProviderManager()
    for index in range(8):
        manager.register(DataProvider(f"p{index}"))
    client = BlobClient(providers=manager, default_chunk_size=4)
    blob = client.create_blob()
    stripes = 800
    result = client.write_batch(
        blob, [(s * 4, LiteralBytes(s.to_bytes(4, "big"))) for s in range(stripes)]
    )
    assert len(result.runs) == 1 and result.chunk_count == stripes
    oracle = OracleStore()
    oracle.create_empty(blob)
    per_stripe = oracle.derive_version(blob, 0, 1, dict.fromkeys(range(stripes)))
    # three whole subtrees (512 + 256 + 32 stripes: 2n - 1 nodes each) and the 5 nodes above them
    assert result.metadata_nodes == per_stripe == 1023 + 511 + 63 + 5
    root = client.metadata._roots[(blob, result.version)]
    # 800 = 512 + 256 + 32: three leaves and the inner nodes leading to them
    assert _tree_nodes(root) <= 2 * stripes.bit_length()
    extents = client.metadata.extents_in_range(blob, result.version, 0, stripes - 1)
    assert extents == [(result.runs[0], 0, stripes - 1)]
    # overwriting the middle splits the leaves, not the run record
    second = client.write_batch(blob, [(s * 4, LiteralBytes(b"....")) for s in range(300, 310)])
    assert second.metadata_nodes == oracle.derive_version(
        blob, 1, 2, dict.fromkeys(range(300, 310))
    )
    extents = client.metadata.extents_in_range(blob, second.version, 0, stripes - 1)
    assert [(first, last) for _run, first, last in extents] == [(0, 299), (300, 309), (310, 799)]
    assert _tree_nodes(client.metadata._roots[(blob, second.version)]) <= 60
    assert client.read(blob, 299 * 4, 12).read() == (299).to_bytes(4, "big") + b"........"


# -- write_batch regressions --------------------------------------------------------------------


def make_client(chunk_size=8):
    manager = ProviderManager()
    for index in range(4):
        manager.register(DataProvider(f"p{index}"))
    return BlobClient(providers=manager, default_chunk_size=chunk_size)


def test_empty_piece_past_eof_does_not_grow_the_blob():
    client = make_client()
    blob = client.create_blob()
    client.write_batch(blob, [(0, LiteralBytes(b"abc"))])
    result = client.write_batch(blob, [(1000, LiteralBytes(b""))])
    assert client.size(blob) == 3
    assert result.record.size == 3 and result.chunk_count == 0
    result = client.write_batch(blob, [(1000, LiteralBytes(b"")), (1, LiteralBytes(b"Z"))])
    assert client.size(blob) == 3
    assert client.read(blob).read() == b"aZc"


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(
        st.lists(
            st.tuples(st.integers(0, 90), st.binary(min_size=0, max_size=40)),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_later_pieces_of_a_batch_win(batches):
    """Overlapping pieces of one batch land in write order, like on a bytearray."""
    client = make_client()
    blob = client.create_blob()
    model = bytearray()
    for pieces in batches:
        for offset, data in pieces:
            if data:
                model.extend(bytes(max(0, offset + len(data) - len(model))))
                model[offset : offset + len(data)] = data
        client.write_batch(blob, [(offset, LiteralBytes(data)) for offset, data in pieces])
        assert client.read(blob).read() == bytes(model)
