"""Unit and property tests for block devices, raw images and qcow2."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_vdisk_runs import qcow_file_size

from repro.util import LiteralBytes, SyntheticBytes
from repro.util.errors import SnapshotError, StorageError
from repro.vdisk import QcowImage, RawImage, SparseDevice


class TestSparseDevice:
    def test_reads_zeros_initially(self):
        dev = SparseDevice(1024, block_size=128)
        assert dev.read(0, 64).read() == b"\x00" * 64

    def test_write_read_roundtrip(self):
        dev = SparseDevice(4096, block_size=256)
        dev.write(100, LiteralBytes(b"hello"))
        assert dev.read(100, 5).read() == b"hello"
        assert dev.read(99, 7).read() == b"\x00hello\x00"

    def test_write_spanning_blocks(self):
        dev = SparseDevice(4096, block_size=128)
        payload = bytes(range(256))
        dev.write(64, LiteralBytes(payload))
        assert dev.read(64, 256).read() == payload

    def test_out_of_range_rejected(self):
        dev = SparseDevice(100)
        with pytest.raises(StorageError):
            dev.write(90, LiteralBytes(b"x" * 20))
        with pytest.raises(StorageError):
            dev.read(90, 20)

    def test_base_overlay_copy_on_write(self):
        base = SparseDevice(1024, block_size=128)
        base.write(0, LiteralBytes(b"base-content" * 10))
        overlay = SparseDevice(1024, block_size=128, base=base)
        assert overlay.read(0, 12).read() == b"base-content"
        overlay.write(0, LiteralBytes(b"OVER"))
        assert overlay.read(0, 12).read() == b"OVER-content"
        # the base is untouched
        assert base.read(0, 4).read() == b"base"

    def test_allocated_bytes_tracks_writes(self):
        dev = SparseDevice(10_000, block_size=100)
        assert dev.allocated_bytes == 0
        dev.write(0, LiteralBytes(b"x" * 250))
        assert dev.allocated_bytes == 300  # three 100-byte blocks touched

    def test_invalid_size(self):
        with pytest.raises(StorageError):
            SparseDevice(0)


@settings(max_examples=25, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 2000), st.binary(min_size=1, max_size=400)),
        min_size=1,
        max_size=10,
    )
)
def test_property_sparse_device_matches_reference(writes):
    """A SparseDevice behaves like a zero-initialised bytearray."""
    dev = SparseDevice(4096, block_size=128)
    reference = bytearray(4096)
    for offset, data in writes:
        if offset + len(data) > 4096:
            data = data[: 4096 - offset]
        if not data:
            continue
        dev.write(offset, LiteralBytes(data))
        reference[offset : offset + len(data)] = data
    assert dev.read(0, 4096).read() == bytes(reference)


class TestRawImage:
    def test_allocated_tracks_content(self):
        img = RawImage(1_000_000, block_size=1024)
        img.write(0, SyntheticBytes("os", 10_000))
        assert 10_000 <= img.allocated_bytes <= 11 * 1024


class TestQcowImage:
    def test_backing_file_read_through(self):
        base = RawImage(10_000, block_size=512)
        base.write(0, LiteralBytes(b"operating-system" * 10))
        overlay = QcowImage(10_000, cluster_size=512, backing=base)
        assert overlay.read(0, 16).read() == b"operating-system"

    def test_write_allocates_clusters_copy_on_write(self):
        base = RawImage(10_000, block_size=512)
        base.write(0, LiteralBytes(b"A" * 2048))
        overlay = QcowImage(10_000, cluster_size=512, backing=base)
        overlay.write(100, LiteralBytes(b"B" * 10))
        data = overlay.read(0, 512).read()
        assert data[:100] == b"A" * 100
        assert data[100:110] == b"B" * 10
        assert data[110:] == b"A" * 402
        assert base.read(100, 10).read() == b"A" * 10
        assert overlay.file_size == qcow_file_size(1, cluster_size=512)

    def test_file_size_grows_with_allocation(self):
        overlay = QcowImage(10**6, cluster_size=1024)
        empty = overlay.file_size
        overlay.write(0, SyntheticBytes("x", 10 * 1024))
        assert overlay.file_size >= empty + 10 * 1024

    def test_rewrite_same_cluster_does_not_grow(self):
        overlay = QcowImage(10**6, cluster_size=1024)
        overlay.write(0, LiteralBytes(b"a" * 1024))
        size_after_first = overlay.file_size
        overlay.write(0, LiteralBytes(b"b" * 1024))
        assert overlay.file_size == size_after_first

    def test_internal_snapshot_freezes_state(self):
        img = QcowImage(10**6, cluster_size=1024)
        img.write(0, LiteralBytes(b"version-1" + b"\x00" * 1015))
        img.create_internal_snapshot("ckpt1", vm_state_size=5000)
        img.write(0, LiteralBytes(b"version-2" + b"\x00" * 1015))
        assert img.read(0, 9).read() == b"version-2"
        img.revert_to_internal_snapshot("ckpt1")
        assert img.read(0, 9).read() == b"version-1"

    def test_snapshot_makes_overwrites_allocate_new_clusters(self):
        img = QcowImage(10**6, cluster_size=1024)
        img.write(0, LiteralBytes(b"a" * 1024))
        img.create_internal_snapshot("s1")
        before = img.file_size
        img.write(0, LiteralBytes(b"b" * 1024))
        assert img.file_size == before + 1024

    def test_vm_state_counted_in_file_size(self):
        img = QcowImage(10**6, cluster_size=1024)
        img.write(0, LiteralBytes(b"x" * 1024))
        before = img.file_size
        img.create_internal_snapshot("full", vm_state_size=100_000)
        assert img.file_size == before + 100_000

    def test_duplicate_snapshot_name_rejected(self):
        img = QcowImage(10**6)
        img.create_internal_snapshot("s")
        with pytest.raises(SnapshotError):
            img.create_internal_snapshot("s")

    def test_revert_unknown_snapshot_rejected(self):
        with pytest.raises(SnapshotError):
            QcowImage(10**6).revert_to_internal_snapshot("nope")

    def test_clone_file_is_independent(self):
        img = QcowImage(10**6, cluster_size=1024)
        img.write(0, LiteralBytes(b"original" + b"\x00" * 1016))
        copy = img.clone_file("copy")
        assert copy.read(0, 8).read() == b"original"
        img.write(0, LiteralBytes(b"MUTATED!"))
        assert copy.read(0, 8).read() == b"original"
        assert img.read(0, 8).read() == b"MUTATED!"

    def test_invalid_parameters(self):
        with pytest.raises(StorageError):
            QcowImage(0)
        with pytest.raises(StorageError):
            QcowImage(100, cluster_size=0)
        base = RawImage(1000)
        with pytest.raises(StorageError):
            QcowImage(500, backing=base)


@settings(max_examples=20, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 3000), st.binary(min_size=1, max_size=500)),
        min_size=1,
        max_size=8,
    )
)
def test_property_qcow_overlay_matches_reference(writes):
    """A qcow2 overlay over a base image reads like base-then-overwrites."""
    base = RawImage(4096, block_size=256)
    base_content = bytes(SyntheticBytes("qcow-base", 4096).read())
    base.write(0, LiteralBytes(base_content))
    overlay = QcowImage(4096, cluster_size=256, backing=base)
    reference = bytearray(base_content)
    for offset, data in writes:
        if offset + len(data) > 4096:
            data = data[: 4096 - offset]
        if not data:
            continue
        overlay.write(offset, LiteralBytes(data))
        reference[offset : offset + len(data)] = data
    assert overlay.read(0, 4096).read() == bytes(reference)
    assert base.read(0, 4096).read() == base_content
