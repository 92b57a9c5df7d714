"""Safety net of the vdisk block plane: content, accounting, background reads.

Operation sequences over :class:`SparseDevice` and :class:`QcowImage` are held
to two references at once: a plain ``bytearray`` for content, and
:class:`BlockOracle` -- the dict-per-block algorithm the devices started from,
reduced to its accounting -- for which blocks are stored, how many clusters
were allocated and written, and which windows are requested from the base or
backing device.  On top of that: a :class:`GuestFileSystem` round trip over
every device, and guest writes through :class:`MirroringModule` committed and
read back by a fresh module, with the ``WriteResult`` numbers pinned.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Cloud
from repro.core import CheckpointRepository, MirroringModule
from repro.guest import GuestFileSystem
from repro.guest.filesystem import METADATA_REGION
from repro.util import LiteralBytes, SyntheticBytes, ZeroBytes
from repro.util.bytesource import _ConcatBytes, concat
from repro.util.config import GRAPHENE
from repro.util.errors import StorageError
from repro.util.runmap import RunMap
from repro.util.units import MB, MiB
from repro.vdisk import QcowImage, RawImage, SparseDevice
from repro.vdisk.blockdev import BlockDevice

BS = 16  # block / cluster size of the devices under test
SIZE = 10 * BS + 5  # ends inside block 10
NBLOCKS = 11


class Recording(BlockDevice):
    """A read-only device that logs every window requested from it."""

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    @property
    def size(self):
        return self.inner.size

    def read(self, offset, length):
        self.log.append((offset, length))
        return self.inner.read(offset, length)

    def write(self, offset, data):
        raise StorageError("read-only")

    def writev(self, pieces):
        raise StorageError("read-only")


def make_base(seed, size, log):
    """A raw image (other granularity, one hole) and its content."""
    image = RawImage(size, block_size=24)
    content = bytearray(SyntheticBytes(("base", seed), size).read())
    content[40:70] = bytes(30)
    image.write(0, LiteralBytes(bytes(content[:40])))
    image.write(70, LiteralBytes(bytes(content[70:])))
    return Recording(image, log), bytes(content)


def qcow_file_size(clusters, cluster_size=BS, vm_state=0):
    """The file size of a qcow2 image with ``clusters`` allocated: header,
    tables, data clusters and VM state."""
    tables = -(-10 * clusters // cluster_size) * cluster_size  # 8 B L2 entry + 2 B refcount
    return 65536 + tables + clusters * cluster_size + vm_state


class BlockOracle:
    """One entry per block: what is stored, allocated, written and fetched."""

    def __init__(self, base_size, requests, block_size=BS):
        self.base_size = base_size
        self.requests = requests  # windows expected at the base, shared between clones
        self.block_size = block_size
        self.blocks = set()
        self.shared = set()
        self.allocated = 0
        self.written = 0

    def clone(self):
        twin = BlockOracle(self.base_size, self.requests, self.block_size)
        twin.blocks, twin.shared = set(self.blocks), set(self.shared)
        twin.allocated = self.allocated  # ``written`` counts writes through one image object
        return twin

    def _background(self, lo, hi):
        if lo < self.base_size:
            self.requests.append((lo, min(hi, self.base_size) - lo))

    def _window(self, offset, length):
        size = self.block_size
        for index in range(offset // size, (offset + length - 1) // size + 1):
            yield index, max(offset, index * size), min(offset + length, (index + 1) * size)

    def read(self, offset, length):
        hole = None  # one request per maximal run of missing blocks
        for index, lo, hi in self._window(offset, length):
            if index in self.blocks:
                if hole:
                    self._background(*hole)
                hole = None
            else:
                hole = (hole[0] if hole else lo, hi)
        if hole:
            self._background(*hole)

    def write(self, offset, length):
        self.writev([(offset, length)])

    def writev(self, windows):
        """One vectored write of ``(offset, length)`` windows, stretch by stretch.

        A stretch is a run of ascending, disjoint windows with no wholly
        untouched block between them.  Before a stretch stores anything, each
        block it covers only in part and does not hold is read from the base
        once, in ascending order; a block its windows cover together is not.
        """
        size, stretch, end = self.block_size, [], 0
        for offset, length in windows:
            if not length:  # an empty window touches nothing
                continue
            if stretch and not (end <= offset and offset // size <= (end - 1) // size + 1):
                self._stretch(stretch)
                stretch = []
            stretch.append((offset, length))
            end = offset + length
        if stretch:
            self._stretch(stretch)

    def _stretch(self, windows):
        covered = {}
        for offset, length in windows:
            for index, lo, hi in self._window(offset, length):
                covered[index] = covered.get(index, 0) + hi - lo
        for index in sorted(covered):
            if covered[index] < self.block_size and index not in self.blocks:
                # read-modify-write
                self._background(index * self.block_size, (index + 1) * self.block_size)
        for offset, length in windows:
            self._store(offset, length)

    def _store(self, offset, length):
        for index, _lo, _hi in self._window(offset, length):
            if index not in self.blocks or index in self.shared:
                self.allocated += 1
            self.blocks.add(index)
            self.shared.discard(index)
            self.written += 1

    def snapshot(self):
        self.shared |= self.blocks
        return frozenset(self.blocks)

    def revert(self, blocks):
        self.blocks, self.shared = set(blocks), set(blocks)


def window(kind, a, b, c):
    """The four window shapes: inside one block, whole blocks, arbitrary, up to the end."""
    if kind == "sub":
        block = a % NBLOCKS
        room = min(BS, SIZE - block * BS)
        start = b % room
        return block * BS + start, 1 + c % (room - start)
    if kind == "aligned":
        first = a % (NBLOCKS - 1)
        return first * BS, (1 + b % (NBLOCKS - 1 - first)) * BS
    if kind == "straddle":
        offset = a % SIZE
        return offset, min(SIZE - offset, 1 + b % (4 * BS))
    length = 1 + a % (3 * BS)
    return SIZE - length, length


def payload(kind, seed, length):
    literal = LiteralBytes(SyntheticBytes(("lit", seed), length).read())
    if kind == "literal" or (kind == "concat" and length == 1):
        return literal
    if kind == "synthetic":
        return SyntheticBytes(("syn", seed), length + 7).slice(3, length)
    if kind == "zero":
        return ZeroBytes(length)
    cut = 1 + seed % (length - 1)
    return concat([literal.slice(0, cut), SyntheticBytes(("cat", seed), length - cut)])


_INT = st.integers(0, 10**6)
WINDOWS = st.tuples(st.sampled_from(["sub", "aligned", "straddle", "tail"]), _INT, _INT, _INT)
PAYLOADS = st.tuples(st.sampled_from(["literal", "synthetic", "zero", "concat"]), _INT)
#: one vectored write: 1-8 windows, each one of the shapes above or ``(start, length)`` inside
#: the batch's own block -- so windows follow each other into one block in ascending order,
#: in descending order, overlapping, or empty
BATCHES = st.tuples(
    st.just("writev"),
    _INT,
    st.lists(
        st.tuples(
            st.one_of(WINDOWS, st.tuples(st.integers(0, BS - 1), st.integers(0, BS))), PAYLOADS
        ),
        min_size=1,
        max_size=8,
    ),
)


def writev(device, model, oracle, block, windows):
    """One ``writev``; the model is fed its pieces one by one, the oracle the vector."""
    block %= NBLOCKS
    room = min(BS, SIZE - block * BS)
    pieces = []
    for shape, (kind, seed) in windows:
        if len(shape) == 2:
            start = shape[0] % room
            offset, length = block * BS + start, min(shape[1], room - start)
        else:
            offset, length = window(*shape)
        pieces.append((offset, payload(kind, seed, length) if length else ZeroBytes(0)))
    device.writev(pieces)
    for offset, data in pieces:
        model[offset : offset + data.size] = data.read()
    oracle.writev([(offset, data.size) for offset, data in pieces])


def stored_blocks(device):
    return [i for i in range(NBLOCKS) if device.block_payload(i) is not None]


def check_runs(run_map):
    """Runs are whole blocks, in ascending order, and never overlap."""
    end = 0
    for start, (count, content, _shared) in zip(run_map.starts, run_map.runs, strict=True):
        assert start >= end and count > 0
        assert content.size == count * run_map.block_size
        end = start + count


# -- SparseDevice -----------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    with_base=st.booleans(),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("write"), WINDOWS, PAYLOADS),
            st.tuples(st.just("read"), WINDOWS),
            BATCHES,
        ),
        min_size=1,
        max_size=25,
    ),
)
def test_sparse_device_matches_block_oracle(with_base, ops):
    log, requests = [], []
    base, content = make_base(1, SIZE - 2 * BS - 3, log) if with_base else (None, b"")
    device = SparseDevice(SIZE, block_size=BS, base=base)
    model = bytearray(content.ljust(SIZE, b"\0"))
    oracle = BlockOracle(len(content), requests)
    for op in ops:
        if op[0] == "writev":
            writev(device, model, oracle, *op[1:])
            continue
        offset, length = window(*op[1])
        if op[0] == "write":
            data = payload(*op[2], length)
            device.write(offset, data)
            model[offset : offset + length] = data.read()
            oracle.write(offset, length)
        else:
            assert device.read(offset, length).read() == bytes(model[offset : offset + length])
            oracle.read(offset, length)
        assert log == requests
        assert stored_blocks(device) == sorted(oracle.blocks)
        assert device.allocated_bytes == len(oracle.blocks) * BS
        check_runs(device._map)
    assert device.read(0, SIZE).read() == bytes(model)
    oracle.read(0, SIZE)
    assert log == requests
    for index in oracle.blocks:
        block = device.block_payload(index)
        assert block.read() == bytes(model[index * BS : (index + 1) * BS]).ljust(BS, b"\0")


# -- QcowImage --------------------------------------------------------------------------------


class _Image:
    """A qcow2 image under test with its references."""

    def __init__(self, image, model, oracle, backing_bytes, snapshots):
        self.image = image
        self.model = model
        self.oracle = oracle
        self.backing_bytes = backing_bytes
        self.snapshots = snapshots  # name -> (blocks, content then, vm state size)

    def clone(self):
        return _Image(
            self.image.clone_file(),
            bytearray(self.model),
            self.oracle.clone(),
            self.backing_bytes,
            dict(self.snapshots),
        )

    def check(self, log, requests):
        image, oracle = self.image, self.oracle
        assert log == requests  # a hole is one request to the backing device
        check_runs(image._map)
        assert image._map.block_count() == len(oracle.blocks)
        assert image.clusters_written == oracle.written
        vm_state = sum(size for _b, _c, size in self.snapshots.values())
        assert image.file_size == qcow_file_size(oracle.allocated, vm_state=vm_state)
        assert [s.name for s in image.internal_snapshots] == list(self.snapshots)

    def check_content(self):
        assert self.image.read(0, SIZE).read() == bytes(self.model)
        self.oracle.read(0, SIZE)


QCOW_OPS = st.one_of(
    st.tuples(st.just("write"), WINDOWS, PAYLOADS),
    BATCHES,
    st.tuples(st.just("read"), WINDOWS),
    st.tuples(st.just("snapshot"), _INT),
    st.tuples(st.just("revert"), _INT),
    st.tuples(st.just("clone"), st.booleans()),
)


@settings(max_examples=200, deadline=None)
@given(backed=st.booleans(), ops=st.lists(QCOW_OPS, min_size=1, max_size=30))
def test_qcow_image_matches_block_oracle(backed, ops):
    log, requests = [], []
    backing, content = make_base(2, SIZE - 3 * BS - 7, log) if backed else (None, b"")
    current = _Image(
        QcowImage(SIZE, cluster_size=BS, backing=backing),
        bytearray(content.ljust(SIZE, b"\0")),
        BlockOracle(len(content), requests),
        content.ljust(SIZE, b"\0"),
        {},
    )
    aside = []
    for op in ops:
        image, model, oracle = current.image, current.model, current.oracle
        if op[0] == "write":
            offset, length = window(*op[1])
            data = payload(*op[2], length)
            image.write(offset, data)
            model[offset : offset + length] = data.read()
            oracle.write(offset, length)
        elif op[0] == "writev":
            writev(image, model, oracle, *op[1:])
        elif op[0] == "read":
            offset, length = window(*op[1])
            assert image.read(offset, length).read() == bytes(model[offset : offset + length])
            oracle.read(offset, length)
        elif op[0] == "snapshot":
            name = f"s{len(current.snapshots)}"
            image.create_internal_snapshot(name, vm_state_size=op[1] % 1000)
            current.snapshots[name] = (oracle.snapshot(), bytes(model), op[1] % 1000)
        elif op[0] == "revert":
            if not current.snapshots:
                continue
            name = sorted(current.snapshots)[op[1] % len(current.snapshots)]
            image.revert_to_internal_snapshot(name)
            blocks, then, _vm = current.snapshots[name]
            oracle.revert(blocks)
            # frozen clusters over whatever the backing device holds *now*
            model[:] = current.backing_bytes
            for index in blocks:
                model[index * BS : (index + 1) * BS] = then[index * BS : (index + 1) * BS]
        else:
            twin = current.clone()
            if op[1]:  # go on with the copy, the original must stay as it is
                current, twin = twin, current
            aside.append(twin)
        current.check(log, requests)
    for each in aside + [current]:
        each.check_content()
        each.check(log, requests)


def test_qcow_copy_up_reads_the_backing_cluster_once():
    log = []
    backing, content = make_base(4, SIZE, log)
    image = QcowImage(SIZE, cluster_size=BS, backing=backing)
    image.write(BS + 3, LiteralBytes(b"xy"))
    assert log == [(BS, BS)]
    image.write(BS + 9, LiteralBytes(b"z"))  # the cluster is local now
    assert log == [(BS, BS)]
    expected = bytearray(content[BS : 2 * BS])
    expected[3:5], expected[9:10] = b"xy", b"z"
    assert image.read(BS, BS).read() == bytes(expected)


def test_clone_file_continues_the_snapshot_sequence():
    image = QcowImage(SIZE, cluster_size=BS)
    image.create_internal_snapshot("s1")
    image.create_internal_snapshot("s2")
    copy = image.clone_file()
    copy.create_internal_snapshot("s3")
    assert [(s.name, s.sequence) for s in copy.internal_snapshots] == [
        ("s1", 1),
        ("s2", 2),
        ("s3", 3),
    ]


# -- the stored unit is the run ---------------------------------------------------------------


def test_one_aligned_write_is_one_run_and_reads_back_as_one_slice():
    device = SparseDevice(1000 * BS, block_size=BS)
    data = SyntheticBytes("file", 800 * BS)
    device.write(3 * BS, data)
    assert list(device.stored_runs()) == [(3 * BS, data)]
    window = device.read(5 * BS + 1, 700 * BS)
    assert isinstance(window, SyntheticBytes)  # a slice of the run, not a concatenation
    assert window.read() == data.read(2 * BS + 1, 700 * BS)
    patch = SyntheticBytes("patch", 10 * BS)
    device.write(400 * BS, patch)
    assert [(offset, run.size) for offset, run in device.stored_runs()] == [
        (3 * BS, 397 * BS),
        (400 * BS, 10 * BS),
        (410 * BS, 393 * BS),
    ]
    assert device.allocated_bytes == 800 * BS
    assert device.block_payload(410).read() == data.read(407 * BS, BS)
    assert [(offset, run.read()) for offset, run in device.stored_runs(399 * BS + 1, 2 * BS)] == [
        (399 * BS + 1, data.read(396 * BS + 1, BS - 1)),
        (400 * BS, patch.read(0, BS + 1)),
    ]


def test_overwriting_snapshotted_clusters_allocates_and_leaves_the_remnants_shared():
    image = QcowImage(1000 * BS, cluster_size=BS)
    image.write(0, SyntheticBytes("disk", 800 * BS))
    image.create_internal_snapshot("s")
    assert image.file_size == qcow_file_size(800)
    image.write(100 * BS, SyntheticBytes("new", 10 * BS))
    assert image.file_size == qcow_file_size(810)
    assert image._map.starts == [0, 100, 110]
    assert [(count, shared) for count, _p, shared in image._map.runs] == [
        (100, True),
        (10, False),
        (690, True),
    ]
    image.write(100 * BS, SyntheticBytes("again", 10 * BS))  # in place now
    image.write(50 * BS + 1, LiteralBytes(b"!"))  # copy-up of a shared cluster allocates
    assert image.file_size == qcow_file_size(811)
    assert image.clusters_written == 821
    assert image._map.block_count() == 800


def test_a_stretch_of_windows_is_stored_with_one_put(monkeypatch):
    log = []
    base, content = make_base(5, SIZE, log)
    device = SparseDevice(SIZE, block_size=BS, base=base)
    puts = []
    put = RunMap.put

    def spy(self, first, count, data):
        puts.append((first, count))
        return put(self, first, count, data)

    monkeypatch.setattr(RunMap, "put", spy)
    device.writev(
        [
            (BS + 1, LiteralBytes(b"ab")),
            (BS + 3, ZeroBytes(0)),
            (BS + 5, LiteralBytes(b"c")),
            (BS + 6, SyntheticBytes("straddle", 2 * BS)),  # head, one whole block, tail
            (3 * BS + 9, LiteralBytes(b"d")),  # follows the tail into block 3
            (3 * BS + 2, LiteralBytes(b"e")),  # steps back: a second stretch, block 3 stored
            (5 * BS, LiteralBytes(b"f" * BS)),  # block 4 untouched between: a third stretch
        ]
    )
    assert log == [(BS, BS), (3 * BS, BS)]  # blocks 1 and 3 once each; block 5 is covered
    assert puts == [(1, 3), (3, 1), (5, 1)]
    expected = bytearray(content)
    expected[BS + 1 : BS + 3], expected[BS + 5 : BS + 6] = b"ab", b"c"
    expected[BS + 6 : 3 * BS + 6] = SyntheticBytes("straddle", 2 * BS).read()
    expected[3 * BS + 9 : 3 * BS + 10], expected[3 * BS + 2 : 3 * BS + 3] = b"d", b"e"
    expected[5 * BS : 6 * BS] = b"f" * BS
    assert device.read(0, SIZE).read() == bytes(expected)
    # however many windows went into it, a block is one flat list of pieces
    assert all(not isinstance(part, _ConcatBytes) for part in device.block_payload(1)._parts)


def test_a_block_the_windows_cover_together_is_not_read():
    log = []
    base, _content = make_base(6, SIZE, log)
    run_map = RunMap(BS)
    fresh = run_map.writev(
        [
            (BS - 3, LiteralBytes(b"abc")),
            (BS, LiteralBytes(b"x" * 5)),
            (BS + 5, LiteralBytes(b"y" * (BS - 5))),  # block 1 is covered by two windows
            (2 * BS, LiteralBytes(b"z")),
        ],
        base.read,
    )
    assert log == [(0, BS), (2 * BS, BS)]
    assert (fresh, run_map.starts) == (3, [0])
    assert run_map.block(1).read() == b"x" * 5 + b"y" * (BS - 5)


def test_an_empty_window_touches_nothing():
    run_map = RunMap(BS)
    asked = []
    fresh = run_map.writev(
        [(3, ZeroBytes(0)), (BS, LiteralBytes(b""))],
        lambda offset, length: asked.append((offset, length)) or ZeroBytes(length),
    )
    assert (fresh, run_map.starts, asked) == (0, [], [])


def test_a_vectored_write_checks_every_window_before_it_applies_one():
    for device in (SparseDevice(SIZE, block_size=BS), QcowImage(SIZE, cluster_size=BS)):
        with pytest.raises(StorageError):
            device.writev([(0, LiteralBytes(b"kept out")), (SIZE, LiteralBytes(b"!"))])
        assert device._map.starts == []
    assert device.clusters_written == 0


def test_a_run_must_be_whole_blocks():
    run_map = SparseDevice(10 * BS, block_size=BS)._map
    with pytest.raises(StorageError):
        run_map.put(0, 2, ZeroBytes(2 * BS - 1))


# -- GuestFileSystem over every device ----------------------------------------------------------

FS_SIZE = 2 * METADATA_REGION + 123


def _formatted_base():
    base = RawImage(FS_SIZE, block_size=8192)
    fs = GuestFileSystem.format(base)
    fs.write_file("/os/kernel", SyntheticBytes("kernel", 30_000))
    fs.sync()
    return base


FS_DEVICES = {
    "sparse": lambda: SparseDevice(FS_SIZE, block_size=10_000),
    "raw": lambda: RawImage(FS_SIZE, block_size=8192),
    "qcow": lambda: QcowImage(FS_SIZE, cluster_size=12_288),
    "sparse-over-raw": lambda: SparseDevice(FS_SIZE, block_size=10_000, base=_formatted_base()),
    "qcow-over-raw": lambda: QcowImage(FS_SIZE, cluster_size=12_288, backing=_formatted_base()),
}

FS_OPS = st.one_of(
    st.tuples(
        st.sampled_from(["write", "append"]), st.integers(0, 3), _INT, st.integers(1, 40_000)
    ),
    st.tuples(st.sampled_from(["sync", "mount"])),
)


@pytest.mark.parametrize("kind", sorted(FS_DEVICES))
@settings(max_examples=12, deadline=None)
@given(ops=st.lists(FS_OPS, min_size=1, max_size=12))
def test_guest_filesystem_round_trip(kind, ops):
    device = FS_DEVICES[kind]()
    durable = {}
    if "over" in kind:
        durable["/os/kernel"] = SyntheticBytes("kernel", 30_000).read()
        fs = GuestFileSystem.mount(device)
    else:
        fs = GuestFileSystem.format(device)
    cached = {}
    for op in ops + [("sync",), ("mount",)]:
        if op[0] in ("write", "append"):
            _code, index, seed, length = op
            path = f"/data/file-{index}"
            data = SyntheticBytes(("fs", seed), length).read()
            fs.write_file(path, data, append=op[0] == "append")
            before = cached.get(path, durable.get(path, b"")) if op[0] == "append" else b""
            cached[path] = before + data
        elif op[0] == "sync":
            fs.sync()
            durable.update(cached)
            cached = {}
        else:
            fs = GuestFileSystem.mount(device)  # what a crash keeps: synced data only
            cached = {}
        visible = {**durable, **cached}
        assert fs.listdir("/") == sorted(visible)
        for path, expected in visible.items():
            assert fs.read_file(path).read() == expected


# -- MirroringModule: guest writes -> COMMIT -> a fresh module reads them back -----------------

CHUNK = 1024
DISK = 64 * CHUNK

#: per epoch ``(chunk_count, bytes_written, logical_bytes, metadata_nodes)``
PINNED_COMMITS = {
    CHUNK // 2: [(23, 23_552, 23_552, 57), (13, 13_312, 13_312, 34)],
    CHUNK: [(23, 23_552, 23_552, 57), (13, 13_312, 13_312, 34)],
    2 * CHUNK: [(26, 26_624, 26_624, 60), (14, 14_336, 14_336, 35)],
}


def _epochs(cow):
    """Guest writes per epoch as ``(offset, payload)``."""
    first = [
        (3 * cow + 5, LiteralBytes(b"inside one block")),
        (8 * CHUNK, SyntheticBytes("run", 16 * CHUNK)),  # aligned, many blocks
        (30 * CHUNK - 100, SyntheticBytes("straddle", 3 * CHUNK + 250)),
        (DISK - 700, concat([ZeroBytes(300), SyntheticBytes("tail", 400)])),
    ]
    second = [
        (12 * CHUNK, SyntheticBytes("middle", 6 * CHUNK)),  # inside the first epoch's run
        (9 * CHUNK + 1, LiteralBytes(b"?")),
        (40 * CHUNK + cow // 2, SyntheticBytes("fresh", 5 * CHUNK)),
    ]
    return [first, second]


def _small_cloud(cow, disk, chunk=CHUNK):
    """A repository on a four-node cloud and a runner for its simulation processes."""
    spec = GRAPHENE.scaled(
        compute_nodes=4,
        service_nodes=3,
        vm=replace(GRAPHENE.vm, disk_size=disk),
        blobseer=replace(GRAPHENE.blobseer, chunk_size=chunk),
        checkpoint=replace(GRAPHENE.checkpoint, cow_block_size=cow),
    )
    cloud = Cloud(spec)
    out = {}

    def run(process):
        def body():
            out["value"] = yield from process

        cloud.run(cloud.process(body()))
        return out["value"]

    return CheckpointRepository(cloud), run


@pytest.mark.parametrize("cow", sorted(PINNED_COMMITS))
def test_mirroring_commit_round_trip(cow):
    repo, run = _small_cloud(cow, DISK)
    base = RawImage(DISK, block_size=cow)
    base.write(0, SyntheticBytes("os", 20 * CHUNK + 77))
    base.write(50 * CHUNK + 9, SyntheticBytes("more-os", 3 * CHUNK))
    model = bytearray(base.read(0, DISK).read())
    blob = run(repo.upload_base_image("node-000", base))
    module = MirroringModule(repo, "node-001", "vm", blob)
    assert module.read(0, DISK).read() == bytes(model)
    run(module.clone())
    for writes, pinned in zip(_epochs(cow), PINNED_COMMITS[cow]):
        for offset, data in writes:
            module.write(offset, data)
            model[offset : offset + data.size] = data.read()
        result = run(module.commit())
        assert (
            result.chunk_count,
            result.bytes_written,
            result.logical_bytes,
            result.metadata_nodes,
        ) == pinned
        assert module.dirty_bytes == 0
        fresh = MirroringModule(
            repo, "node-002", "vm-restored", module.checkpoint_blob_id, base_version=result.version
        )
        assert fresh.read(0, DISK).read() == bytes(model)
        assert module.read(0, DISK).read() == bytes(model)


def test_upload_and_commit_ship_nothing_beyond_a_disk_that_ends_inside_a_block():
    """The zero padding of the last, partial block must not grow the BLOB past the disk."""
    disk = 16 * CHUNK + 300
    repo, run = _small_cloud(CHUNK, disk)
    base = RawImage(disk, block_size=CHUNK)
    base.write(disk - 10, LiteralBytes(b"base-tail!"))
    blob = run(repo.upload_base_image("node-000", base))
    assert repo.client.size(blob) == disk
    module = MirroringModule(repo, "node-001", "vm", blob)
    module.write(disk - 4, LiteralBytes(b"tail"))
    run(module.clone())
    result = run(module.commit())
    assert repo.client.size(module.checkpoint_blob_id, result.version) == disk
    fresh = MirroringModule(
        repo, "node-002", "vm-restored", module.checkpoint_blob_id, base_version=result.version
    )
    assert fresh.read(disk - 10, 10).read() == b"base-ttail"


#: where :func:`_fail_once` makes a COMMIT fail
FAILURES = ("write_batch", "transfer")


def _fail_once(repo, where):
    """Make the next COMMIT's repository call raise: in ``write_batch``, before
    anything is sent, or in the transfer of the chunks it placed."""
    if where == "write_batch":

        def refuse(*args, **kwargs):
            del repo.client.write_batch
            raise StorageError("write_batch refused")

        repo.client.write_batch = refuse
    else:

        def drop(*args, **kwargs):
            del repo._data_write
            return repo.cloud.env.event().fail(StorageError("transfer dropped"))

        repo._data_write = drop


@pytest.mark.parametrize("where", FAILURES)
def test_a_failed_commit_leaves_its_blocks_to_the_next(where):
    """A COMMIT whose repository call raises takes nothing: ``dirty_bytes``
    still counts its blocks, and the next COMMIT ships them with the blocks
    written since."""
    repo, run = _small_cloud(CHUNK, DISK)
    base = RawImage(DISK, block_size=CHUNK)
    base.write(0, SyntheticBytes("os", 10 * CHUNK))
    blob = run(repo.upload_base_image("node-000", base))
    module = MirroringModule(repo, "node-001", "vm", blob)
    run(module.clone())
    model = bytearray(module.read(0, DISK).read())

    def write(offset, data):
        module.write(offset, data)
        model[offset : offset + data.size] = data.read()

    write(3 * CHUNK + 5, SyntheticBytes("kept", 4 * CHUNK))  # blocks 3-7
    _fail_once(repo, where)
    with pytest.raises(StorageError):
        run(module.commit())
    assert module.dirty_bytes == 5 * CHUNK and module.committed_versions == []
    write(20 * CHUNK, SyntheticBytes("later", CHUNK))
    result = run(module.commit())
    assert result.chunk_count == 6 and module.dirty_bytes == 0
    fresh = MirroringModule(
        repo, "node-002", "vm-restored", module.checkpoint_blob_id, base_version=result.version
    )
    assert fresh.read(0, DISK).read() == bytes(model)


#: a disk that ends inside its last block, so the last block ships short
EPOCH_DISK = 40 * CHUNK + 300
#: per epoch, guest write windows ``(offset, length)`` anywhere on the disk;
#: short ones straddle, touch and repeat blocks, long ones span many
EPOCH_WINDOWS = st.lists(
    st.lists(
        st.integers(0, EPOCH_DISK - 1).flatmap(
            lambda offset: st.tuples(
                st.just(offset),
                st.one_of(st.integers(0, 3 * CHUNK), st.integers(0, 20 * CHUNK)).map(
                    lambda length, offset=offset: min(length, EPOCH_DISK - offset)
                ),
            )
        ),
        max_size=6,
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40, deadline=None)  # tier-1 budget: 2 s
@given(EPOCH_WINDOWS, st.dictionaries(st.integers(0, 2), st.sampled_from(FAILURES)))
@example(
    [[(0, 2 * CHUNK), (2 * CHUNK, 2 * CHUNK)], [(15 * CHUNK + 9, 1), (5 * CHUNK, 1)]],
    {0: "transfer"},
)
@example([[(2 * CHUNK + 5, 5 * CHUNK), (0, 20 * CHUNK), (3 * CHUNK, 0)]], {})
@example(
    [[(2 * CHUNK, 2 * CHUNK), (5 * CHUNK, CHUNK)], [(0, 2 * CHUNK), (6 * CHUNK, 2 * CHUNK)], []],
    {1: "write_batch"},
)
def test_property_a_commit_ships_exactly_the_blocks_dirtied_since_the_last(epochs, failures):
    """COMMIT after COMMIT: what the module ships, and ``dirty_bytes`` before
    it, are those of the set of blocks the windows touched since the last
    COMMIT that succeeded.  ``failures`` maps an epoch to where its COMMIT
    fails (:func:`_fail_once`) if it has blocks to ship; the last epoch's
    never does.  The pinned
    examples write touching windows then apart ones, the first COMMIT failing
    in its transfer; a nested window before the one holding it, then an
    empty one; and, after a COMMIT, runs that touch the committed ones, whose
    COMMIT fails."""
    repo, run = _small_cloud(CHUNK, EPOCH_DISK)
    base = RawImage(EPOCH_DISK, block_size=CHUNK)
    base.write(0, SyntheticBytes("os", 10 * CHUNK + 7))
    blob = run(repo.upload_base_image("node-000", base))
    module = MirroringModule(repo, "node-001", "vm", blob)
    run(module.clone())
    shipped = []
    commit_blocks = repo.commit_blocks

    def spy(node, blob_id, blocks, *args, **kwargs):
        shipped.append(blocks)
        return (yield from commit_blocks(node, blob_id, blocks, *args, **kwargs))

    repo.commit_blocks = spy
    dirty = set()
    for number, windows in enumerate(epochs):
        for index, (offset, length) in enumerate(windows):
            module.write(offset, SyntheticBytes(("epoch", number, index), length))
            if length:
                dirty.update(range(offset // CHUNK, (offset + length - 1) // CHUNK + 1))
        assert module.dirty_bytes == len(dirty) * CHUNK
        fresh = module._local.fresh_blocks()
        assert all(count > 0 for _first, count in fresh)
        assert all(a[0] + a[1] <= b[0] for a, b in zip(fresh, fresh[1:]))  # sorted, disjoint
        assert {i for first, count in fresh for i in range(first, first + count)} == dirty
        assert sorted(module.residue_payloads()) == sorted(dirty)
        if dirty and number in failures and number + 1 < len(epochs):
            _fail_once(repo, failures[number])
            with pytest.raises(StorageError):
                run(module.commit())
            continue  # the next COMMIT ships these blocks too
        result = run(module.commit())
        blocks = shipped[-1]
        covered = [
            first + i for first, payload in blocks.items() for i in range(-(-payload.size // CHUNK))
        ]
        assert sorted(covered) == sorted(dirty)
        shipped_bytes = sum(min(CHUNK, EPOCH_DISK - b * CHUNK) for b in dirty)
        assert sum(payload.size for payload in blocks.values()) == shipped_bytes
        assert result.bytes_written == shipped_bytes
        assert result.chunk_count == len(dirty)
        assert module.dirty_bytes == 0 and module.residue_payloads() == {}
        dirty = set()


def test_a_write_during_a_commit_goes_to_the_next_commit():
    """A write that lands while a COMMIT's transfer is in flight is not part of
    that COMMIT: ``dirty_bytes`` counts it afterwards and the next COMMIT ships
    it.  It cuts the middle out of a run the first COMMIT ships, and what is
    left of that run is not shipped again."""
    repo, run = _small_cloud(CHUNK, DISK)
    base = RawImage(DISK, block_size=CHUNK)
    base.write(0, SyntheticBytes("os", 10 * CHUNK))
    blob = run(repo.upload_base_image("node-000", base))
    module = MirroringModule(repo, "node-001", "vm", blob)
    run(module.clone())
    model = bytearray(module.read(0, DISK).read())

    def write(offset, data):
        module.write(offset, data)
        model[offset : offset + data.size] = data.read()

    write(4 * CHUNK, SyntheticBytes("first", 8 * CHUNK))  # blocks 4-11
    shipped, during = [], []
    commit_blocks, data_write = repo.commit_blocks, repo._data_write

    def spy(node, blob_id, blocks, *args, **kwargs):
        shipped.append(sorted((index, -(-p.size // CHUNK)) for index, p in blocks.items()))
        return (yield from commit_blocks(node, blob_id, blocks, *args, **kwargs))

    def transfer(*args, **kwargs):
        flow = data_write(*args, **kwargs)
        if len(shipped) == 1:
            during.append(bytes(model))  # what the first COMMIT holds
            write(6 * CHUNK + 10, SyntheticBytes("during", 2 * CHUNK))  # blocks 6-8
        return flow

    repo.commit_blocks, repo._data_write = spy, transfer
    first = run(module.commit())
    assert shipped == [[(4, 8)]]
    assert module.dirty_bytes == 3 * CHUNK
    assert sorted(module.residue_payloads()) == [6, 7, 8]
    second = run(module.commit())
    assert shipped[1] == [(6, 3)]
    assert module.dirty_bytes == 0 and module.residue_payloads() == {}
    for version, content in ((first.version, during[0]), (second.version, bytes(model))):
        fresh = MirroringModule(
            repo, "node-002", "vm-restored", module.checkpoint_blob_id, base_version=version
        )
        assert fresh.read(0, DISK).read() == content


def test_a_sequential_write_is_one_fresh_run_per_write():
    """200 MB written front to back, 1 MiB at a time, leaves one unflagged run
    per write for the next COMMIT, not one entry per block."""
    block = 256 * 1024
    repo, run = _small_cloud(block, 256 * MiB, chunk=block)
    base = RawImage(256 * MiB, block_size=block)
    base.write(0, SyntheticBytes("os", 3 * block))
    module = MirroringModule(repo, "node-001", "vm", run(repo.upload_base_image("node-000", base)))
    total = 200 * MB
    writes = [(offset, min(MiB, total - offset)) for offset in range(0, total, MiB)]
    for offset, length in writes:
        module.write(offset, SyntheticBytes(("seq", offset), length))
    assert module._local.fresh_blocks() == [
        (offset // block, -(-length // block)) for offset, length in writes
    ]
    assert module.dirty_bytes == -(-total // block) * block
