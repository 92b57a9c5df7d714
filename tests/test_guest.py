"""Unit and property tests for the guest environment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.util import LiteralBytes, SyntheticBytes
from repro.util.config import CheckpointSpec, VMSpec
from repro.util.errors import FileSystemError, GuestError, ProcessError
from repro.vdisk import SparseDevice

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


class TestGuestProcess:
    def test_allocate_and_account(self):
        proc = GuestProcess("bench")
        proc.allocate("buffer", SyntheticBytes("buf", 1000))
        proc.allocate("scratch", b"123")
        assert proc.allocated_bytes == 1003
        assert proc.segment("scratch").read() == b"123"

    def test_free(self):
        proc = GuestProcess("bench")
        proc.allocate("x", b"1234")
        proc.free("x")
        assert proc.allocated_bytes == 0
        with pytest.raises(ProcessError):
            proc.free("x")

    def test_lifecycle(self):
        proc = GuestProcess("bench")
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
        proc = GuestProcess("mpi-rank-3")
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
        assert restored.segment("domain") == proc.segment("domain")
        assert restored.segment("halo").read() == b"halo-data"

    def test_dump_size_covers_all_memory(self):
        proc = GuestProcess("fat")
        proc.allocate("a", SyntheticBytes("a", 200_000))
        proc.allocate("b", SyntheticBytes("b", 300_000))
        dump = blcr_dump(proc)
        assert dump.size >= 500_000
        assert dump.size <= 500_000 + 128 * 1024

    def test_dump_dead_process_rejected(self):
        proc = GuestProcess("dead")
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
        proc = vm.spawn_process("app")
        vm.suspend()
        assert vm.state is VMState.SUSPENDED
        assert proc.state is ProcessState.STOPPED
        vm.resume()
        assert proc.state is ProcessState.RUNNING

    def test_terminate_clears_state(self):
        vm = self._booted_vm()
        vm.spawn_process("app")
        vm.terminate()
        assert vm.state is VMState.TERMINATED
        assert vm.processes == {}
        assert vm.disk is None

    def test_spawn_requires_running(self):
        vm = VMInstance("vm-2", VMSpec())
        with pytest.raises(GuestError):
            vm.spawn_process("app")

    def test_runtime_state_bytes(self):
        vm = self._booted_vm()
        proc = vm.spawn_process("app")
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
