"""Unit and property tests for the guest environment."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_vdisk_runs import BlockOracle, Recording, _small_cloud

from repro.core import MirroringModule
from repro.guest import (
    GuestFileSystem,
    GuestProcess,
    ProcessState,
    VMInstance,
    VMState,
    blcr_dump,
    blcr_restore,
    write_boot_noise,
    write_runtime_noise,
)
from repro.guest.filesystem import FS_BLOCK, METADATA_REGION, _json_key
from repro.util import LiteralBytes, SyntheticBytes
from repro.util.config import CheckpointSpec, VMSpec
from repro.util.errors import FileSystemError, GuestError, ProcessError, StorageError
from repro.vdisk import QcowImage, RawImage, SparseDevice

DEVICE_SIZE = 64 * 1024 * 1024


def make_fs():
    device = SparseDevice(DEVICE_SIZE, block_size=256 * 1024)
    return GuestFileSystem.format(device), device


class TestGuestFileSystem:
    def test_write_read_roundtrip(self):
        fs, _dev = make_fs()
        fs.write_file("/data/output.dat", b"hello world")
        assert fs.read_file("/data/output.dat").read() == b"hello world"

    def test_append(self):
        fs, _dev = make_fs()
        fs.write_file("/var/log/app.log", b"line1\n")
        fs.write_file("/var/log/app.log", b"line2\n", append=True)
        assert fs.read_file("/var/log/app.log").read() == b"line1\nline2\n"

    def test_missing_file_raises(self):
        fs, _dev = make_fs()
        with pytest.raises(FileSystemError):
            fs.read_file("/nope")

    def test_relative_path_rejected(self):
        fs, _dev = make_fs()
        with pytest.raises(FileSystemError):
            fs.write_file("relative.txt", b"x")

    def test_listdir_and_exists(self):
        fs, _dev = make_fs()
        fs.write_file("/a/x", b"1")
        fs.write_file("/a/y", b"2")
        fs.write_file("/b/z", b"3")
        assert fs.listdir("/a") == ["/a/x", "/a/y"]
        assert fs.exists("/a/x") and not fs.exists("/a/q")

    def test_delete(self):
        fs, _dev = make_fs()
        fs.write_file("/tmp/file", b"x")
        fs.delete("/tmp/file")
        assert not fs.exists("/tmp/file")
        with pytest.raises(FileSystemError):
            fs.delete("/tmp/file")

    def test_sync_persists_across_mount(self):
        fs, dev = make_fs()
        fs.write_file("/ckpt/rank0.dat", SyntheticBytes("state", 100_000))
        fs.sync()
        remounted = GuestFileSystem.mount(dev)
        assert remounted.read_file("/ckpt/rank0.dat") == SyntheticBytes("state", 100_000)

    def test_mount_reads_only_the_header_and_the_table(self):
        """On a lazily fetched device every byte read at mount is a remote fetch."""
        fs, dev = make_fs()
        fs.write_file("/ckpt/rank0.dat", SyntheticBytes("state", 100_000))
        table_bytes = fs.sync() - 100_000 - 8
        reads = []
        read = dev.read
        dev.read = lambda offset, length: reads.append((offset, length)) or read(offset, length)
        GuestFileSystem.mount(dev)
        assert reads == [(0, 8), (8, table_bytes)]

    def test_mount_and_sync_encode_a_path_once(self):
        """The inode table is joined from per-file lines; the JSON text of a path
        is shared by every guest that has the file, so a mount encodes nothing new."""
        fs, dev = make_fs()
        paths = [f'/once/"{i}"/\u00e9' for i in range(40)]
        for path in paths:
            fs.write_file(path, b"x")
        before = _json_key.cache_info().misses
        fs.sync()
        assert _json_key.cache_info().misses == before + len(paths)
        remounted = GuestFileSystem.mount(dev)
        remounted.write_file(paths[0], b"rewritten")
        remounted.sync()
        assert _json_key.cache_info().misses == before + len(paths)
        assert GuestFileSystem.mount(dev).read_file(paths[0]).read() == b"rewritten"

    def test_unsynced_data_lost_on_remount(self):
        fs, dev = make_fs()
        fs.write_file("/ckpt/synced.dat", b"synced")
        fs.sync()
        fs.write_file("/ckpt/unsynced.dat", b"lost")
        remounted = GuestFileSystem.mount(dev)
        assert remounted.exists("/ckpt/synced.dat")
        assert not remounted.exists("/ckpt/unsynced.dat")

    def test_unsynced_append_rolls_back(self):
        """Log lines appended after the last sync are absent after remount --
        the file-system rollback property the paper motivates."""
        fs, dev = make_fs()
        fs.write_file("/var/log/app.log", b"before\n")
        fs.sync()
        fs.write_file("/var/log/app.log", b"after-crash\n", append=True)
        remounted = GuestFileSystem.mount(dev)
        assert remounted.read_file("/var/log/app.log").read() == b"before\n"

    def test_dirty_accounting(self):
        fs, _dev = make_fs()
        fs.write_file("/a", b"x" * 100)
        assert fs.dirty_files == ["/a"]
        assert fs.dirty_bytes == 100
        fs.sync()
        assert fs.dirty_files == []
        assert fs.dirty_bytes == 0

    def test_fsync_single_file(self):
        fs, dev = make_fs()
        fs.write_file("/one", b"1" * 10)
        fs.write_file("/two", b"2" * 10)
        fs.fsync("/one")
        remounted = GuestFileSystem.mount(dev)
        assert remounted.exists("/one") and not remounted.exists("/two")

    def test_stat(self):
        fs, _dev = make_fs()
        fs.write_file("/file", b"abc")
        st_before = fs.stat("/file")
        assert st_before.size == 3 and st_before.dirty
        fs.sync()
        st_after = fs.stat("/file")
        assert not st_after.dirty and st_after.on_disk_size >= 3

    def test_mount_unformatted_device_fails(self):
        device = SparseDevice(DEVICE_SIZE)
        with pytest.raises(FileSystemError):
            GuestFileSystem.mount(device)

    def test_device_full(self):
        device = SparseDevice(5 * 1024 * 1024, block_size=64 * 1024)
        fs = GuestFileSystem.format(device)
        fs.write_file("/big", SyntheticBytes("big", 4 * 1024 * 1024))
        with pytest.raises(FileSystemError):
            fs.sync()

    def test_device_full_midway_keeps_the_files_flushed_before_it(self):
        device = SparseDevice(METADATA_REGION + 5 * FS_BLOCK, block_size=64 * 1024)
        fs = GuestFileSystem.format(device)
        fs.write_file("/one", b"1" * FS_BLOCK)
        fs.write_file("/two", b"2" * 100)
        fs.sync()
        fs.write_file("/one", b"I" * 10)  # rewritten in place
        fs.write_file("/three", b"3" * 2 * FS_BLOCK)  # the last two free blocks
        fs.write_file("/huge", SyntheticBytes("huge", 3 * FS_BLOCK))
        fs.write_file("/after", b"after")
        with pytest.raises(FileSystemError, match="device full"):
            fs.sync()
        assert fs.dirty_files == ["/after", "/huge"] and fs.sync_count == 1
        assert fs.file_extents("/three") == [(METADATA_REGION + 2 * FS_BLOCK, 2 * FS_BLOCK)]
        assert fs.read_file("/one").read() == b"I" * 10  # clean: read back from the device
        assert fs.read_file("/three").read() == b"3" * 2 * FS_BLOCK
        assert fs.read_file("/huge") == SyntheticBytes("huge", 3 * FS_BLOCK)
        # the data is on the device, the table that names it is not
        crashed = GuestFileSystem.mount(device)
        assert crashed.listdir("/") == ["/one", "/two"]
        assert crashed.read_file("/one").read() == b"I" * 10 + b"1" * (FS_BLOCK - 10)
        assert crashed.used_bytes == 2 * FS_BLOCK
        # The allocator refuses before the device has to: a vectored write checks every
        # window of the batch before it applies one, so no sync can half-land on a bad one.
        with pytest.raises(StorageError):
            device.writev([(0, LiteralBytes(b"not applied")), (device.size, LiteralBytes(b"!"))])
        assert GuestFileSystem.mount(device).listdir("/") == ["/one", "/two"]

    def test_oversized_inode_table_keeps_the_flushed_files(self):
        fs, dev = make_fs()
        fs.write_file("/kept", b"kept")
        fs.sync()
        endless = "/" + "x" * METADATA_REGION
        fs.write_file(endless, b"data")
        fs.write_file("/kept", b"more", append=True)
        with pytest.raises(FileSystemError, match="exceeds the metadata region"):
            fs.sync()
        assert fs.dirty_files == [] and fs.sync_count == 1
        assert fs.read_file(endless).read() == b"data"
        assert fs.read_file("/kept").read() == b"keptmore"
        crashed = GuestFileSystem.mount(dev)  # the old table over the rewritten extent
        assert crashed.listdir("/") == ["/kept"]
        assert crashed.read_file("/kept").read() == b"kept"

    def test_table_bytes_survive_a_mount_and_sync_round_trip(self):
        """A file has one extent: the table a remounted file system writes back
        is, byte for byte, the one it read."""
        fs, dev = make_fs()
        for index in range(40):
            size = (index * 1777) % (3 * FS_BLOCK)  # empty, short, exact and multi-block files
            fs.write_file(f"/seeded/{index:02d}-\u00e9\"q", SyntheticBytes(("seeded", index), size))
        fs.sync()
        fs.write_file("/seeded/00-grown", b"x")
        fs.sync()
        fs.write_file("/seeded/00-grown", SyntheticBytes("grown", 2 * FS_BLOCK))  # moves
        fs.delete("/seeded/07-\u00e9\"q")
        fs.sync()

        def table():
            length = int.from_bytes(dev.read(0, 8).read(), "little")
            return dev.read(0, 8 + length).read()

        before = table()
        remounted = GuestFileSystem.mount(dev)
        assert remounted.sync() == len(before)  # nothing dirty: the table alone
        assert table() == before
        for path in remounted.listdir("/"):
            ((offset, length),) = remounted.file_extents(path)
            assert remounted.stat(path).on_disk_size == length and offset >= METADATA_REGION
            assert json.loads(before[8:])["files"][path]["extents"] == [[offset, length]]
        remounted.write_file("/unflushed", b"cache only")
        assert remounted.file_extents("/unflushed") == []
        assert remounted.stat("/unflushed").on_disk_size == 0

    @pytest.mark.parametrize(
        "extents", [[], [[METADATA_REGION, 4096], [METADATA_REGION + 4096, 4096]]]
    )
    def test_a_table_naming_other_than_one_extent_is_refused(self, extents):
        fs, dev = make_fs()
        fs.write_file("/f", b"data")
        fs.sync()
        length = int.from_bytes(dev.read(0, 8).read(), "little")
        table = json.loads(dev.read(8, length).read())
        table["files"]["/f"]["extents"] = extents
        payload = json.dumps(table, sort_keys=True).encode()
        dev.write(0, LiteralBytes(len(payload).to_bytes(8, "little") + payload))
        with pytest.raises(FileSystemError, match="/f does not have exactly one extent"):
            GuestFileSystem.mount(dev)

    def test_rewrite_in_place_does_not_leak_space(self):
        fs, _dev = make_fs()
        fs.write_file("/f", b"a" * 8192)
        fs.sync()
        used = fs.used_bytes
        fs.write_file("/f", b"b" * 4096)
        fs.sync()
        assert fs.used_bytes == used


@settings(max_examples=20, deadline=None)
@given(
    files=st.dictionaries(
        st.sampled_from(["/a", "/b/c", "/d/e/f", "/log"]),
        st.binary(min_size=0, max_size=5000),
        min_size=1,
        max_size=4,
    )
)
def test_property_fs_survives_remount(files):
    """After sync, a remounted file system returns exactly what was written."""
    fs, dev = make_fs()
    for path, data in files.items():
        fs.write_file(path, data)
    fs.sync()
    remounted = GuestFileSystem.mount(dev)
    for path, data in files.items():
        assert remounted.read_file(path).read() == data


# -- what a sync puts on the device, and what it asks of the base: a model of the whole path ----

NET_SIZE = METADATA_REGION + 2_000_003  # ends inside a block of every device below
NET_BASE_SIZE = METADATA_REGION + 50_000  # a smaller base image: windows are clipped to it
NET_BLOCK = {"sparse": 10_000, "qcow": 3 * FS_BLOCK, "mirror": 2 * FS_BLOCK}
NET_PATHS = [
    "/a",  # the first three are in the base image already
    "/b/c",
    "/os/kernel",
    '/q"uo"te',
    "/back\\slash\\",
    "/\u00fcn\u00ef/\u00e7\u00f8d\u00e9",
    '/}, "x": {',
]
NET_KERNEL = SyntheticBytes("kernel", 30_000).read()
_INT = st.integers(0, 10**6)


class _FsModel:
    """The guest file system as plain Python: inodes in table order, a bump
    allocator, the device as one ``bytearray`` and the table last written."""

    def __init__(self, disk):
        self.disk = disk
        self.mount()

    def mount(self):
        length = int.from_bytes(self.disk[:8], "little")
        table = json.loads(bytes(self.disk[8 : 8 + length]))
        self.next_free = table["next_free"]
        #: path -> [extent or None, flushed size, cached content or None], in inode order
        self.nodes = {
            path: [tuple(entry["extents"][0]), entry["size"], None]
            for path, entry in table["files"].items()
        }

    def content(self, path):
        extent, flushed, cached = self.nodes[path]
        return cached if cached is not None else bytes(self.disk[extent[0] : extent[0] + flushed])

    def write(self, path, data, append):
        node = self.nodes.setdefault(path, [None, 0, b""])
        node[2] = self.content(path) + data if append else data

    def table_blob(self):
        table = {
            "next_free": self.next_free,
            "files": {
                path: {"size": flushed, "extents": [list(extent)]}
                for path, (extent, flushed, _cached) in self.nodes.items()
                if extent
            },
        }
        payload = json.dumps(table, sort_keys=True).encode("utf-8")
        return len(payload).to_bytes(8, "little") + payload

    def flush(self, paths):
        """Flush ``paths`` then the table; returns the written windows in order."""
        windows = []
        for path in paths:
            node = self.nodes[path]
            content = self.content(path)
            if node[0] is None or len(content) > node[0][1]:
                length = -(-max(len(content), 1) // FS_BLOCK) * FS_BLOCK
                node[0] = (self.next_free, length)
                self.next_free += length
            windows.append((node[0][0], content))
            node[1], node[2] = len(content), None
        windows.append((0, self.table_blob()))
        for offset, content in windows:
            self.disk[offset : offset + len(content)] = content
        return [(offset, len(content)) for offset, content in windows if content]


def _net_base(log):
    image = RawImage(NET_BASE_SIZE, block_size=8192)
    fs = GuestFileSystem.format(image)
    fs.write_file("/os/kernel", NET_KERNEL)
    fs.write_file("/b/c", b"c" * 5000)  # inode order after a mount is not extent order
    fs.write_file("/a", b"a" * 100)
    fs.sync()
    return Recording(image, log), image.read(0, NET_BASE_SIZE).read()


_MIRROR = {}  # the repository and uploaded base of the mirroring case, built once


def _net_device(kind, log):
    """``(device, base content, request-log size of the oracle's base)``."""
    if kind == "mirror":
        if not _MIRROR:
            repo, run = _small_cloud(NET_BLOCK[kind], NET_SIZE, chunk=64 * 1024)
            base, content = _net_base([])
            _MIRROR.update(repo=repo, content=content)
            _MIRROR["blob"] = run(repo.upload_base_image("node-000", base.inner))
        module = MirroringModule(_MIRROR["repo"], "node-001", "vm", _MIRROR["blob"])
        fetch = module.remote.read
        module.remote.read = lambda offset, length: (
            log.append((offset, length)) or fetch(offset, length)
        )
        return module, _MIRROR["content"], NET_SIZE  # the remote device spans the whole disk
    base, content = _net_base(log)
    if kind == "sparse":
        return SparseDevice(NET_SIZE, block_size=NET_BLOCK[kind], base=base), content, len(content)
    return QcowImage(NET_SIZE, cluster_size=NET_BLOCK[kind], backing=base), content, len(content)


#: a size is ``multiple * unit + delta`` with unit 0 the FS block and unit 1 the device block
_NET_SIZE = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(-1, 700))
_NET_PATH = st.sampled_from(NET_PATHS)
_NET_WRITE = st.tuples(st.sampled_from(["write", "append"]), _NET_PATH, _NET_SIZE, _INT)
NET_OPS = st.lists(
    st.one_of(
        _NET_WRITE,
        _NET_WRITE,
        st.tuples(st.sampled_from(["delete", "fsync", "fsync", "read"]), _NET_PATH),
        st.tuples(st.sampled_from(["sync", "sync", "mount", "snapshot"])),
    ),
    min_size=3,
    max_size=16,
)
_FS, _DEV = (1, 0, 0), (1, 1, 0)  # one FS block, one device block


@pytest.mark.parametrize("kind", sorted(NET_BLOCK))
@settings(max_examples=40, deadline=None)
@given(ops=NET_OPS)
# an fsync writes the table while another flushed file is dirty again, then a crash
@example(
    ops=[
        ("write", "/b/c", _DEV, 1),
        ("sync",),
        ("append", "/b/c", _FS, 2),
        ("fsync", "/os/kernel"),
        ("mount",),
    ]
)
# first touches of the base's blocks, in inode order: descending offsets
@example(ops=[("write", path, (0, 0, 50), 3) for path in NET_PATHS[:3]] + [("sync",)])
# small files that follow each other into one device block, rewritten in another order
@example(
    ops=[("write", path, (1, 0, -1 - i), i) for i, path in enumerate(NET_PATHS)]
    + [("sync",), ("snapshot",)]
    + [("write", path, (0, 0, 9 + i), i) for i, path in enumerate(reversed(NET_PATHS))]
    + [("delete", "/a"), ("sync",)]
)
def test_sync_matches_a_model_of_the_file_system_and_the_block_oracle(kind, ops):
    block = NET_BLOCK[kind]
    log, requests, reads = [], [], []
    device, content, base_size = _net_device(kind, log)
    oracle = BlockOracle(base_size, requests, block)
    model = _FsModel(bytearray(content.ljust(NET_SIZE, b"\0")))
    read = device.read  # every window the file system (or this test) asks of the device
    device.read = lambda offset, length: reads.append((offset, length)) or read(offset, length)
    fs = GuestFileSystem.mount(device)
    snapshots = 0

    def flushed(paths):
        """After a flush of ``paths``: reads came first, then the windows in flush order."""
        for offset, length in reads:
            oracle.read(offset, length)
        del reads[:]
        for offset, length in model.flush(paths):
            oracle.write(offset, length)
        assert log == requests  # what the base was asked for, window by window, in order
        # the table on the device, rebuilt from what the file system reports
        table = {"next_free": METADATA_REGION + fs.used_bytes, "files": {}}
        for path in fs.listdir("/"):
            extents, stat = fs.file_extents(path), fs.stat(path)
            if extents:
                assert extents == [model.nodes[path][0]]
                assert stat.dirty or stat.size == model.nodes[path][1]
                table["files"][path] = {
                    "size": model.nodes[path][1],
                    "extents": [list(extent) for extent in extents],
                }
        payload = json.dumps(table, sort_keys=True).encode("utf-8")
        assert read(0, 8).read() == len(payload).to_bytes(8, "little")
        assert read(8, len(payload)).read() == payload
        oracle.read(0, 8)
        oracle.read(8, len(payload))
        assert read(0, NET_SIZE).read() == bytes(model.disk)
        oracle.read(0, NET_SIZE)
        assert log == requests
        if kind == "sparse":
            stored = [
                i for i in range(-(-NET_SIZE // block)) if device.block_payload(i) is not None
            ]
            assert stored == sorted(oracle.blocks)
            assert device.allocated_bytes == len(oracle.blocks) * block
        elif kind == "qcow":
            assert device.allocated_clusters == oracle.allocated
            assert device.clusters_written == oracle.written
            assert device.guest_visible_bytes == len(oracle.blocks) * block
        else:
            assert device.dirty.dirty_blocks == oracle.blocks
            assert device.locally_modified_bytes == len(oracle.blocks) * block

    for op in ops + [("sync",), ("mount",), ("sync",)]:
        if op[0] in ("write", "append"):
            _code, path, (multiple, unit, delta), seed = op
            size = max(0, multiple * (FS_BLOCK, block)[unit] + delta)
            payload = SyntheticBytes(("net", seed), size).read()
            fs.write_file(path, payload, append=op[0] == "append")
            model.write(path, payload, op[0] == "append")
        elif op[0] == "sync":
            dirty = [path for path, node in model.nodes.items() if node[2] is not None]
            fs.sync()
            flushed(dirty)
        elif op[0] == "mount":
            fs = GuestFileSystem.mount(device)  # what a crash keeps
            model.mount()
        elif op[0] == "snapshot":
            if kind == "qcow":
                snapshots += 1
                device.create_internal_snapshot(f"s{snapshots}")
                oracle.snapshot()
        elif op[1] not in model.nodes:
            with pytest.raises(FileSystemError):
                getattr(fs, {"read": "read_file"}.get(op[0], op[0]))(op[1])
        elif op[0] == "delete":
            fs.delete(op[1])
            del model.nodes[op[1]]
        elif op[0] == "fsync":
            fs.fsync(op[1])
            flushed([op[1]])
        else:
            assert fs.read_file(op[1]).read() == model.content(op[1])
        assert fs.listdir("/") == sorted(model.nodes)
        assert fs.dirty_files == sorted(p for p, node in model.nodes.items() if node[2] is not None)
    for offset, length in reads:
        oracle.read(offset, length)
    assert log == requests


class TestGuestProcess:
    def test_allocate_and_account(self):
        proc = GuestProcess("bench", 1000)
        proc.allocate("buffer", SyntheticBytes("buf", 1000))
        proc.allocate("scratch", b"123")
        assert proc.allocated_bytes == 1003
        assert proc.segments["scratch"].read() == b"123"

    def test_lifecycle(self):
        proc = GuestProcess("bench", 1000)
        proc.stop()
        assert proc.state is ProcessState.STOPPED
        proc.resume()
        assert proc.state is ProcessState.RUNNING
        proc.kill()
        assert proc.state is ProcessState.DEAD
        with pytest.raises(ProcessError):
            proc.allocate("y", b"z")


class TestBLCR:
    def test_dump_restore_roundtrip(self):
        proc = GuestProcess("mpi-rank-3", 1003)
        proc.allocate("domain", SyntheticBytes("domain", 50_000))
        proc.allocate("halo", b"halo-data")
        proc.registers["pc"] = 1234
        proc.iteration = 17
        dump = blcr_dump(proc)
        restored = blcr_restore(dump)
        assert restored.name == "mpi-rank-3"
        assert restored.pid == proc.pid
        assert restored.iteration == 17
        assert restored.registers["pc"] == 1234
        assert restored.segments["domain"] == proc.segments["domain"]
        assert restored.segments["halo"].read() == b"halo-data"

    def test_dump_size_covers_all_memory(self):
        proc = GuestProcess("fat", 1000)
        proc.allocate("a", SyntheticBytes("a", 200_000))
        proc.allocate("b", SyntheticBytes("b", 300_000))
        dump = blcr_dump(proc)
        assert dump.size >= 500_000
        assert dump.size <= 500_000 + 128 * 1024

    def test_dump_dead_process_rejected(self):
        proc = GuestProcess("dead", 1000)
        proc.kill()
        with pytest.raises(ProcessError):
            blcr_dump(proc)

    def test_restore_corrupted_dump_rejected(self):
        with pytest.raises(ProcessError):
            blcr_restore(LiteralBytes(b"garbage"))


class TestVMInstance:
    def _booted_vm(self):
        vm = VMInstance("vm-0", VMSpec())
        device = SparseDevice(DEVICE_SIZE, block_size=256 * 1024)
        fs = GuestFileSystem.format(device)
        vm.attach_disk(device)
        vm.mark_booting()
        vm.mark_running(fs)
        return vm

    def test_boot_lifecycle(self):
        vm = self._booted_vm()
        assert vm.is_running and vm.boot_count == 1

    def test_boot_without_disk_rejected(self):
        vm = VMInstance("vm-1", VMSpec())
        with pytest.raises(GuestError):
            vm.mark_booting()

    def test_suspend_resume_stops_processes(self):
        vm = self._booted_vm()
        proc = vm.spawn_process("app", 1000)
        vm.suspend()
        assert vm.state is VMState.SUSPENDED
        assert proc.state is ProcessState.STOPPED
        vm.resume()
        assert proc.state is ProcessState.RUNNING

    def test_terminate_clears_state(self):
        vm = self._booted_vm()
        vm.spawn_process("app", 1000)
        vm.terminate()
        assert vm.state is VMState.TERMINATED
        assert vm.processes == {}
        assert vm.disk is None

    def test_spawn_requires_running(self):
        vm = VMInstance("vm-2", VMSpec())
        with pytest.raises(GuestError):
            vm.spawn_process("app", 1000)

    def test_runtime_state_bytes(self):
        vm = self._booted_vm()
        proc = vm.spawn_process("app", 1000)
        proc.allocate("buffer", SyntheticBytes("buf", 1_000_000))
        assert vm.runtime_state_bytes == VMSpec().savevm_state_bytes + 1_000_000


class TestOsNoise:
    def test_boot_noise_volume(self):
        fs, _dev = make_fs()
        spec = CheckpointSpec()
        written = write_boot_noise(fs, spec, "vm-7")
        assert written >= spec.os_noise_bytes * 0.9
        assert len(fs.listdir("/")) >= min(spec.os_noise_files, 12)
        assert fs.dirty_files == []  # boot noise is synced

    def test_boot_noise_deterministic(self):
        fs1, _ = make_fs()
        fs2, _ = make_fs()
        spec = CheckpointSpec()
        assert write_boot_noise(fs1, spec, "vm-7") == write_boot_noise(fs2, spec, "vm-7")

    def test_runtime_noise_appends(self):
        fs, _dev = make_fs()
        spec = CheckpointSpec()
        write_boot_noise(fs, spec, "vm-7")
        size_before = fs.stat("/var/log/syslog").size
        write_runtime_noise(fs, spec, "vm-7", epoch=1)
        assert fs.stat("/var/log/syslog").size > size_before
