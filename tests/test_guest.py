"""Unit and property tests for the guest environment."""

import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_vdisk_runs import BlockOracle, Recording, _small_cloud, qcow_file_size

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
)
from repro.guest.blcr import BLCR_HEADER_OVERHEAD
from repro.guest.filesystem import (
    FS_BLOCK,
    METADATA_REGION,
    _InodeTable,
    _json_key,
    _padding,
)
from repro.guest.osnoise import _boot_plan
from repro.util import LiteralBytes, SyntheticBytes, ZeroBytes
from repro.util.bytesource import content_equal
from repro.util.config import CheckpointSpec, VMSpec
from repro.util.errors import FileSystemError, GuestError, ProcessError, StorageError
from repro.util.runmap import RunMap
from repro.vdisk import QcowImage, RawImage, SparseDevice

DEVICE_SIZE = 64 * 1024 * 1024


def make_fs():
    device = SparseDevice(DEVICE_SIZE, block_size=256 * 1024)
    return GuestFileSystem.format(device), device


def _table(path="/f", next_free=METADATA_REGION + FS_BLOCK, **fields):
    """A table of one file: one byte in the first block of the data region,
    but for ``fields`` (a field of ``None`` is left out)."""
    entry = {"extents": [[METADATA_REGION, FS_BLOCK]], "size": 1, **fields}
    entry = {key: value for key, value in entry.items() if value is not None}
    return {"files": {path: entry}, "next_free": next_free}


#: inode tables of the wrong shape, or that put the allocator's mark or a
#: file where the file system did not allocate
MALFORMED_TABLES = {
    "a list": [1, 2],
    "no next_free": {"files": {}},
    "files as a list": {"files": [], "next_free": METADATA_REGION},
    "a file without a size": _table(size=None),
    "a size that is no number": _table(size="x"),
    "an extent that is no pair": _table(extents=[5]),
    "next_free in the metadata region": {"files": {}, "next_free": 1},
    "next_free past the device": {"files": {}, "next_free": DEVICE_SIZE + 1},
    "an extent in the metadata region": _table(extents=[[0, FS_BLOCK]]),
    "an extent past next_free": _table(extents=[[METADATA_REGION, 2 * FS_BLOCK]]),
    "a size past its extent": _table(size=FS_BLOCK + 1),
    "a negative size": _table(size=-1),
    "a relative path": _table(path="f"),
    "a path that is not normalised": _table(path="/d//f"),
    "the root as a file": _table(path="/"),
    "two files on one extent": {
        "files": {path: _table()["files"]["/f"] for path in ("/f", "/g")},
        "next_free": METADATA_REGION + FS_BLOCK,
    },
}


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
        restored = remounted.read_file("/ckpt/rank0.dat")
        assert restored.read() == SyntheticBytes("state", 100_000).read()

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

    def test_a_mount_shares_the_entries_of_the_table_it_reads(self):
        """A clean file is its entry of the inode table on the device: a mount
        makes no object per file, and a fresh extent's zeros are one object per
        length."""
        fs, dev = make_fs()
        for index in range(5):
            fs.write_file(f"/f{index}", b"x" * (index + 1))
        fs.sync()
        table = dev.read(8, int.from_bytes(dev.read(0, 8).read(), "little"))
        assert type(table) is _InodeTable
        remounted = GuestFileSystem.mount(dev)
        assert len(table.entries) == len(remounted.listdir("/")) == 5
        assert all(remounted._entries[entry[0]] is entry for entry in table.entries)
        assert remounted.dirty_files == []
        assert _padding(FS_BLOCK - 1) is _padding(FS_BLOCK - 1)
        assert _padding(7).size == 7 and _padding(7).read() == bytes(7)

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
        assert sum(fs.read_file(path).size for path in fs.dirty_files) == 100
        fs.sync()
        assert fs.dirty_files == []

    def test_a_file_has_an_extent_once_it_is_synced(self):
        fs, _dev = make_fs()
        fs.write_file("/file", b"abc")
        assert fs.read_file("/file").size == 3 and "/file" in fs.dirty_files
        assert fs.file_extents("/file") == []
        fs.sync()
        ((offset, length),) = fs.file_extents("/file")
        assert "/file" not in fs.dirty_files and length >= 3 and offset >= METADATA_REGION

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
        assert fs.read_file("/huge").read() == SyntheticBytes("huge", 3 * FS_BLOCK).read()
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
            assert length >= remounted.read_file(path).size and offset >= METADATA_REGION
            assert json.loads(before[8:])["files"][path]["extents"] == [[offset, length]]
        remounted.write_file("/unflushed", b"cache only")
        assert remounted.file_extents("/unflushed") == []

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

    @pytest.mark.parametrize("table", MALFORMED_TABLES.values(), ids=list(MALFORMED_TABLES))
    def test_a_malformed_table_is_refused(self, table):
        device = SparseDevice(DEVICE_SIZE, block_size=256 * 1024)
        payload = json.dumps(table).encode()
        device.write(0, LiteralBytes(len(payload).to_bytes(8, "little") + payload))
        with pytest.raises(FileSystemError, match="corrupted file-system metadata"):
            GuestFileSystem.mount(device)

    def test_rewrite_in_place_does_not_leak_space(self):
        fs, _dev = make_fs()
        fs.write_file("/f", b"a" * 8192)
        fs.sync()
        used = fs.used_bytes
        fs.write_file("/f", b"b" * 4096)
        fs.sync()
        assert fs.used_bytes == used

    def test_a_sync_allocates_the_files_on_disk_first_then_the_new_ones_as_first_written(self):
        """Extent offsets, and so every row, depend on the order a sync flushes in:
        the files already on disk in table order, then the new files in the order
        they were first written; a file deleted and written again is new."""
        fs, dev = make_fs()
        fs.write_file("/a", b"a")
        fs.write_file("/c", b"c")
        fs.sync()
        fs = GuestFileSystem.mount(dev)
        fs.write_file("/b", b"b")
        fs.write_file("/c", b"c" * 5000)
        fs.write_file("/a", b"a" * 5000)
        fs.delete("/b")
        fs.write_file("/b", b"b")
        fs.sync()
        extents = {path: fs.file_extents(path) for path in ("/a", "/b", "/c")}
        assert extents == {
            "/a": [(4_202_496, 2 * FS_BLOCK)],
            "/c": [(4_210_688, 2 * FS_BLOCK)],
            "/b": [(4_218_880, FS_BLOCK)],
        }
        assert GuestFileSystem.mount(dev).file_extents("/b") == [(4_218_880, FS_BLOCK)]

    def test_a_dirty_file_keeps_its_flushed_extent_until_the_next_sync(self):
        fs, dev = make_fs()
        fs.write_file("/f", b"old")
        fs.sync()
        flushed = fs.file_extents("/f")
        fs.write_file("/f", b"n" * (3 * FS_BLOCK))  # grows past its extent: moves at the sync
        assert fs.dirty_files == ["/f"] and fs.file_extents("/f") == flushed
        assert fs.read_file("/f").read() == b"n" * (3 * FS_BLOCK)
        assert GuestFileSystem.mount(dev).read_file("/f").read() == b"old"
        fs.sync()
        assert fs.file_extents("/f") != flushed

    def test_append_to_an_empty_or_a_missing_file(self):
        fs, dev = make_fs()
        assert fs.write_file("/new", b"x", append=True) == 1  # appending creates the file
        fs.write_file("/empty", b"")
        assert fs.write_file("/empty", b"y", append=True) == 1
        assert fs.read_file("/empty").read() == b"y"
        fs.write_file("/flushed-empty", b"")
        fs.sync()
        remounted = GuestFileSystem.mount(dev)
        assert remounted.read_file("/flushed-empty").read() == b""
        remounted.write_file("/flushed-empty", b"z", append=True)
        remounted.write_file("/new", b"y", append=True)
        assert remounted.read_file("/flushed-empty").read() == b"z"
        assert remounted.read_file("/new").read() == b"xy"
        remounted.sync()
        assert GuestFileSystem.mount(dev).read_file("/new").read() == b"xy"

    def test_a_full_device_leaves_the_flushed_prefix_clean_and_the_rest_dirty(self):
        device = SparseDevice(METADATA_REGION + 4 * FS_BLOCK, block_size=64 * 1024)
        fs = GuestFileSystem.format(device)
        for path, size in (("/1", 10), ("/2", FS_BLOCK + 1), ("/3", 2 * FS_BLOCK), ("/4", 1)):
            fs.write_file(path, SyntheticBytes(path, size))
        with pytest.raises(FileSystemError, match="device full"):
            fs.sync()
        assert fs.dirty_files == ["/3", "/4"]
        assert fs.file_extents("/1") == [(METADATA_REGION, FS_BLOCK)]
        assert fs.file_extents("/2") == [(METADATA_REGION + FS_BLOCK, 2 * FS_BLOCK)]
        assert fs.file_extents("/3") == fs.file_extents("/4") == []
        for path, size in (("/1", 10), ("/2", FS_BLOCK + 1), ("/3", 2 * FS_BLOCK), ("/4", 1)):
            assert fs.read_file(path).read() == SyntheticBytes(path, size).read()
        fs.delete("/3")
        fs.sync()  # the rest fits now
        assert fs.dirty_files == []
        assert fs.file_extents("/4") == [(METADATA_REGION + 3 * FS_BLOCK, FS_BLOCK)]
        assert GuestFileSystem.mount(device).listdir("/") == ["/1", "/2", "/4"]


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


_FS_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["write", "append"]),
            st.sampled_from(["/a", "/b/c", "/d", "/e"]),
            st.binary(max_size=FS_BLOCK + 10),
        ),
        st.tuples(st.just("delete"), st.sampled_from(["/a", "/b/c", "/d", "/e"])),
        st.tuples(st.sampled_from(["sync", "mount"])),
    ),
    max_size=14,
)


@settings(max_examples=50, deadline=None)
@given(ops=_FS_OPS)
def test_property_the_file_system_is_a_dict_of_paths_to_bytes(ops):
    """Writes, appends and deletes act on a page cache; a sync makes it what a
    mount finds, and a mount forgets what was not synced."""
    fs, device = make_fs()
    synced, current, dirty = {}, {}, set()
    for op in ops:
        if op[0] in ("write", "append"):
            _code, path, data = op
            fs.write_file(path, data, append=op[0] == "append")
            current[path] = current.get(path, b"") + data if op[0] == "append" else data
            dirty.add(path)
        elif op[0] == "delete":
            if op[1] in current:
                fs.delete(op[1])
                del current[op[1]]
                dirty.discard(op[1])
            else:
                with pytest.raises(FileSystemError):
                    fs.delete(op[1])
        elif op[0] == "sync":
            fs.sync()
            synced, dirty = dict(current), set()
        else:
            fs = GuestFileSystem.mount(device)
            current, dirty = dict(synced), set()
        assert fs.listdir("/") == sorted(current)
        assert fs.dirty_files == sorted(dirty)
        for path, data in current.items():
            assert fs.read_file(path).read() == data


# -- a table the file system wrote against the same bytes as a literal copy ---------------------

_TABLE_PATH = st.one_of(
    st.sampled_from(['/q"uo"te', "/back\\slash\\", "/ünï/çødé"]),
    st.sampled_from(['/}, "x": {', "/a"]),
    st.text('a"\\é中}{, :x', min_size=1, max_size=6).map(lambda name: "/" + name),
)
_TABLE_SIZE = st.sampled_from([0, 1, FS_BLOCK - 1, FS_BLOCK, FS_BLOCK + 1])


def _table_bytes(device):
    length = int.from_bytes(device.read(0, 8).read(), "little")
    return device.read(0, 8 + length).read()


def _outcome(call, *args):
    """What ``call`` returns, or the type and text of what it raises."""
    try:
        return call(*args)
    except Exception as exc:  # both file systems must fail alike, whatever the error
        return type(exc), str(exc)


def _view(fs):
    """Everything a mounted file system shows of its files."""
    return {
        path: (
            path in fs.dirty_files,
            fs.file_extents(path),
            _outcome(lambda p: fs.read_file(p).read(), path),
        )
        for path in fs.listdir("/")
    }


def _mount_both(device, blob):
    """Mount ``device`` and a fresh overlay of it holding ``blob`` as a literal table."""
    twin = SparseDevice(device.size, block_size=64 * 1024, base=device)
    twin.write(0, LiteralBytes(blob))
    return twin, _outcome(GuestFileSystem.mount, device), _outcome(GuestFileSystem.mount, twin)


@settings(max_examples=25, deadline=None)
@given(
    files=st.dictionaries(_TABLE_PATH, _TABLE_SIZE, max_size=6),
    rewrites=st.dictionaries(_TABLE_PATH, _TABLE_SIZE, max_size=3),
    deletes=st.sets(_TABLE_PATH, max_size=2),
    flip=st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
)
@example(files={"/a": FS_BLOCK}, rewrites={}, deletes=set(), flip=(3, 1))  # a header byte
def test_property_a_rendered_table_mounts_as_its_literal_copy(files, rewrites, deletes, flip):
    """A file system mounted from the table its device holds and one mounted from
    a byte copy of that table agree on every file, and write the same table back."""
    fs, device = make_fs()
    for round_files in (files, rewrites):
        for index, (path, size) in enumerate(sorted(round_files.items())):
            fs.write_file(path, SyntheticBytes(("table", path, index), size))
        fs.sync()
        for path in deletes & set(fs.listdir("/")):
            fs.delete(path)
    fs.sync()
    blob = _table_bytes(device)
    with (
        mock.patch.object(json, "loads", wraps=json.loads) as parse,
        mock.patch.object(_InodeTable, "_fill") as render,
    ):
        twin, mounted, copied = _mount_both(device, blob)
    assert parse.call_count == 1 and not render.called  # the device's table is its entries
    table = device.read(8, len(blob) - 8)
    assert type(table) is _InodeTable
    assert table.fingerprint() == LiteralBytes(blob[8:]).fingerprint()
    assert isinstance(mounted, GuestFileSystem) and isinstance(copied, GuestFileSystem)
    assert mounted.listdir("/") == copied.listdir("/") == sorted(fs.listdir("/"))
    assert _view(mounted) == _view(copied) == _view(fs)
    assert mounted.sync() == copied.sync() == len(blob)  # nothing dirty: the table alone
    assert _table_bytes(device) == _table_bytes(twin) == blob
    # one flipped byte: the device and a copy of its bytes fail alike, or mount alike
    position, mask = flip[0] % len(blob), flip[1]
    blob = bytearray(blob)
    blob[position] ^= mask
    device.write(position, LiteralBytes(blob[position : position + 1]))
    _twin, mounted, copied = _mount_both(device, bytes(blob))
    if isinstance(mounted, GuestFileSystem) and isinstance(copied, GuestFileSystem):
        assert mounted.listdir("/") == copied.listdir("/")
        assert _view(mounted) == _view(copied)
    else:
        assert mounted == copied


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
        """Flush ``paths`` then the table; returns the written windows in order.

        A fresh extent of a non-empty file is written whole: its content,
        then zeros to the extent's end."""
        windows = []
        for path in paths:
            node = self.nodes[path]
            content = window = self.content(path)
            if node[0] is None or len(content) > node[0][1]:
                length = -(-max(len(content), 1) // FS_BLOCK) * FS_BLOCK
                node[0] = (self.next_free, length)
                self.next_free += length
                if content:
                    window = content.ljust(length, b"\0")
            windows.append((node[0][0], window))
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
        st.tuples(st.sampled_from(["delete", "read"]), _NET_PATH),
        st.tuples(st.sampled_from(["sync", "sync", "mount", "snapshot"])),
    ),
    min_size=3,
    max_size=16,
)


@pytest.mark.parametrize("kind", sorted(NET_BLOCK))
@settings(max_examples=40, deadline=None)
@given(ops=NET_OPS)
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
        oracle.writev(model.flush(paths))  # one flush is one vectored write
        assert log == requests  # what the base was asked for, window by window, in order
        # the table on the device, rebuilt from what the file system reports
        table = {"next_free": METADATA_REGION + fs.used_bytes, "files": {}}
        for path in fs.listdir("/"):
            extents = fs.file_extents(path)
            if extents:
                assert extents == [model.nodes[path][0]]
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
            assert device.file_size == qcow_file_size(oracle.allocated, block)
            assert device.clusters_written == oracle.written
            assert device._map.block_count() == len(oracle.blocks)
        else:  # no COMMIT runs: the local copy holds exactly the dirty blocks
            fresh = device._local.fresh_blocks()
            dirty = {i for first, count in fresh for i in range(first, first + count)}
            assert dirty == oracle.blocks

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
        assert restored.segments["domain"].read() == SyntheticBytes("domain", 50_000).read()
        assert restored.segments["halo"].read() == b"halo-data"

    def test_dump_is_the_literal_layout_and_restores(self):
        """``len8 + header + zeros to BLCR_HEADER_OVERHEAD + segments by name``."""
        proc = GuestProcess("rank-0", 77)
        proc.allocate("stack", b"stack!")
        proc.allocate("heap", SyntheticBytes("heap", 70_000))
        proc.registers.update(pc=9, sp=4096)
        proc.iteration = 3
        header = json.dumps(
            {
                "name": "rank-0",
                "pid": 77,
                "registers": {"pc": 9, "sp": 4096},
                "iteration": 3,
                "segments": [["heap", 70_000], ["stack", 6]],
            },
            sort_keys=True,
        ).encode("utf-8")
        padding = BLCR_HEADER_OVERHEAD - 8 - len(header)
        memory = SyntheticBytes("heap", 70_000).read() + b"stack!"
        literal = len(header).to_bytes(8, "little") + header + bytes(padding) + memory
        dump = blcr_dump(proc)
        assert dump.size == len(literal) and dump.read() == literal
        # every window, and a window inside the pad, reads as the layout does
        for offset, length in [(0, 8), (8 + len(header) - 3, 40), (1000, 20_000), (65_530, 9)]:
            assert dump.slice(offset, length).read() == literal[offset : offset + length]
        restored = blcr_restore(dump)
        assert (restored.name, restored.pid, restored.iteration) == ("rank-0", 77, 3)
        assert restored.registers == {"pc": 9, "sp": 4096}
        assert {name: s.read() for name, s in restored.segments.items()} == {
            "heap": memory[:70_000],
            "stack": b"stack!",
        }
        assert blcr_dump(restored).read() == literal

    def test_dumps_hold_their_pad_as_zero_extents(self):
        """64 dumps of a process keep no copy of their 64 KiB pads (1 MiB bound;
        a pad held as bytes costs 4 MiB over 64 dumps)."""
        proc = GuestProcess("rank-1", 78)
        proc.allocate("heap", SyntheticBytes("heap", 100_000_000))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dumps = [blcr_dump(proc) for _ in range(64)]
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1024 * 1024
        assert type(dumps[0].slice(4096, 8192)) is ZeroBytes  # a block of the pad
        assert dumps[-1].size == BLCR_HEADER_OVERHEAD + 100_000_000

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
        (fs1, dev1), (fs2, dev2), (other, dev3) = make_fs(), make_fs(), make_fs()
        spec = CheckpointSpec()
        assert write_boot_noise(fs1, spec, "vm-7") == write_boot_noise(fs2, spec, "vm-7")
        write_boot_noise(other, spec, "vm-8")
        assert fs1.listdir("/") == fs2.listdir("/") == other.listdir("/")
        assert content_equal(dev1.read(0, DEVICE_SIZE), dev2.read(0, DEVICE_SIZE))
        assert not content_equal(dev1.read(0, DEVICE_SIZE), dev3.read(0, DEVICE_SIZE))
        # the plan both boots shared is the plan a fresh draw makes
        key = ("vm-7", spec.os_noise_files, spec.os_noise_bytes)
        memoised, fresh = _boot_plan(*key), _boot_plan.__wrapped__(*key)
        assert all(content_equal(a, b) for a, b in zip(memoised, fresh, strict=True))

    @pytest.mark.parametrize("from_image", [False, True])
    def test_boot_noise_sync_stores_at_most_two_runs(self, monkeypatch, from_image):
        if from_image:  # a guest booted from an image already holds its OS files
            image, _content = _net_base([])
            device = SparseDevice(DEVICE_SIZE, block_size=256 * 1024, base=image)
            fs = GuestFileSystem.mount(device)
        else:
            fs, device = make_fs()
        puts = []
        put = RunMap.put

        def spy(self, first, count, data):
            puts.append(first)
            return put(self, first, count, data)

        monkeypatch.setattr(RunMap, "put", spy)
        write_boot_noise(fs, CheckpointSpec(), "vm-7")
        assert fs.dirty_files == [] and 1 <= len(puts) <= 2

    def test_boot_noise_over_a_mirror_asks_its_base_for_nothing_under_the_noise(self):
        """Fresh extents are written whole, so the blocks under the noise files are
        never fetched: only those holding the table or the file system's older data."""
        log = []
        device, _content, _size = _net_device("mirror", log)
        fs = GuestFileSystem.mount(device)
        noise_start = METADATA_REGION + fs.used_bytes
        del log[:]
        spec = replace(CheckpointSpec(), os_noise_bytes=1_000_000, os_noise_files=24)
        write_boot_noise(fs, spec, "vm-7")
        assert fs.dirty_files == [] and len(fs.listdir("/")) == 3 + 24
        assert log and all(offset < noise_start for offset, _length in log)
