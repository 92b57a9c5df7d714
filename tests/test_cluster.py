"""Unit tests for the cluster simulation layer."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Cloud, FailureInjector, Hypervisor, PVFSDeployment
from repro.guest.filesystem import GuestFileSystem
from repro.guest.vm import VMInstance, VMState
from repro.util.config import GRAPHENE
from repro.util.errors import FailureInjected, FileSystemError, SimulationError, StorageError
from repro.util.rng import make_rng
from repro.vdisk import SparseDevice

SMALL = GRAPHENE.scaled(compute_nodes=6, service_nodes=2)


def to_disk(cloud, src, dst, nbytes):
    """Ship ``nbytes`` from node ``src`` onto ``dst``'s disk: the network path and that disk."""
    return cloud.network.transfer(src, dst, nbytes, extra_channels=[cloud.node(dst).disk.channel])


class TestCloud:
    def test_topology(self):
        cloud = Cloud(SMALL)
        assert len(cloud.compute_nodes) == 6
        assert len(cloud.service_nodes) == 2
        assert cloud.node("node-000").alive
        with pytest.raises(SimulationError):
            cloud.node("node-999")

    def test_remote_write_charges_time(self):
        cloud = Cloud(SMALL)
        done = {}

        def mover():
            yield to_disk(cloud, "node-000", "node-001", 55_000_000)
            done["t"] = cloud.now

        cloud.process(mover())
        cloud.run()
        # 55 MB at the 55 MB/s disk (the bottleneck behind the 117.5 MB/s NIC)
        assert done["t"] == pytest.approx(1.0, rel=0.1)

    def test_local_io(self):
        cloud = Cloud(SMALL)
        done = {}

        def mover():
            yield cloud.node("node-000").disk.write(5_500_000)
            done["t"] = cloud.now

        cloud.process(mover())
        cloud.run()
        assert done["t"] == pytest.approx(0.1, rel=0.2)

    def test_jitter_is_bounded_and_deterministic(self):
        cloud = Cloud(SMALL)
        a = cloud.jittered(10.0, key="x")
        b = Cloud(SMALL).jittered(10.0, key="x")
        assert a == b
        assert 10.0 * (1 - SMALL.jitter) <= a <= 10.0 * (1 + SMALL.jitter)

    def test_node_failure_aborts_transfers(self):
        cloud = Cloud(SMALL)
        outcome = {}

        def mover():
            try:
                yield to_disk(cloud, "node-000", "node-001", 500_000_000)
                outcome["r"] = "done"
            except FailureInjected:
                outcome["r"] = "failed"

        def killer():
            yield cloud.env.timeout(1.0)
            cloud.node("node-001").fail()

        cloud.process(mover())
        cloud.process(killer())
        cloud.run()
        assert outcome["r"] == "failed"
        assert not cloud.node("node-001").alive


#: keys as the callers build them, plus keys that are equal in Python but not in ``repr``
_JITTER_KEYS = st.one_of(
    st.tuples(st.sampled_from(["boot", "sync", "blcr", "drain"]), st.integers(0, 3)),
    st.text(max_size=4),
    st.sampled_from([1, 1.0, True, (1,), (1.0,), (True,)]),
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    draws=st.lists(
        st.tuples(_JITTER_KEYS, st.sampled_from([0.0, 0.01, 0.03, 0.5]), st.floats(-1.0, 100.0)),
        min_size=1,
        max_size=12,
    ),
)
@example(seed=7, draws=[(1, 0.03, 10.0), (1.0, 0.03, 10.0), (True, 0.03, 10.0), (1, 0.03, 10.0)])
def test_keyed_jitter_is_a_fresh_draw_of_its_key(seed, draws):
    clouds = {}
    for key, jitter, nominal in draws:
        if jitter not in clouds:
            clouds[jitter] = Cloud(SMALL.scaled(seed=seed, jitter=jitter))
        expected = max(0.0, nominal)
        if nominal > 0 and jitter > 0:
            factor = 1.0 + float(make_rng("jitter", seed, key).uniform(-jitter, jitter))
            expected = max(0.0, nominal * factor)
        assert clouds[jitter].jittered(nominal, key) == expected


class TestPVFS:
    def test_write_then_read_roundtrip(self):
        cloud = Cloud(SMALL)
        pvfs = PVFSDeployment(cloud)
        out = {}

        def scenario():
            yield from pvfs.write_file(
                "node-000", "data/file.bin", 10_000_000, payload="the-payload"
            )
            entry = yield from pvfs.read_file("node-001", "data/file.bin")
            out["payload"] = entry.payload
            out["size"] = entry.size

        cloud.run(cloud.process(scenario()))
        assert out["payload"] == "the-payload"
        assert out["size"] == 10_000_000
        assert pvfs.total_stored_bytes == 10_000_000

    def test_missing_file(self):
        cloud = Cloud(SMALL)
        pvfs = PVFSDeployment(cloud)

        def scenario():
            yield from pvfs.read_file("node-000", "nope")

        with pytest.raises(FileSystemError):
            cloud.run(cloud.process(scenario()))

    def test_concurrent_writes_slower_than_single(self):
        def run(n_clients):
            cloud = Cloud(SMALL)
            pvfs = PVFSDeployment(cloud)
            finish = {}

            def writer(i):
                yield from pvfs.write_file(f"node-00{i}", f"f{i}", 200_000_000)
                finish[i] = cloud.now

            for i in range(n_clients):
                cloud.process(writer(i))
            cloud.run()
            return max(finish.values())

        assert run(6) > run(1) * 1.5

    def test_negative_size_rejected(self):
        cloud = Cloud(SMALL)
        pvfs = PVFSDeployment(cloud)
        with pytest.raises(StorageError):
            cloud.run(cloud.process(pvfs.write_file("node-000", "f", -1)))


def _local_disk_reader(node):
    """An image reader that reads the boot working set from ``node``'s own disk."""
    return lambda nbytes, label: node.disk.read(nbytes, label=label)


class TestHypervisor:
    def _env(self):
        cloud = Cloud(SMALL)
        return cloud, Hypervisor(cloud, "node-000")

    def test_boot_mounts_filesystem(self):
        cloud, hyp = self._env()
        device = SparseDevice(cloud.spec.vm.disk_size, block_size=256 * 1024)
        image_fs = GuestFileSystem.format(device)
        image_fs.write_file("/etc/motd", b"hi")
        image_fs.sync()
        image_fs.write_file("/etc/unsynced", b"cached only")
        vm = VMInstance("vm-x", cloud.spec.vm)
        out = {}

        def scenario():
            yield from hyp.boot(vm, device, _local_disk_reader(hyp.node))
            out["t"] = cloud.now

        cloud.run(cloud.process(scenario()))
        assert vm.state is VMState.RUNNING
        assert out["t"] >= cloud.spec.vm.boot_time * 0.9
        # the guest mounts what was synced to the disk, and only that
        assert vm.filesystem.read_file("/etc/motd").read() == b"hi"
        assert not vm.filesystem.exists("/etc/unsynced")

    def test_suspend_resume_cost(self):
        cloud, hyp = self._env()
        device = SparseDevice(cloud.spec.vm.disk_size, block_size=256 * 1024)
        GuestFileSystem.format(device)
        vm = VMInstance("vm-y", cloud.spec.vm)

        def scenario():
            yield from hyp.boot(vm, device, _local_disk_reader(hyp.node))
            t0 = cloud.now
            yield from hyp.suspend(vm)
            assert vm.state is VMState.SUSPENDED
            yield from hyp.resume(vm)
            assert vm.state is VMState.RUNNING
            return cloud.now - t0

        duration = cloud.run(cloud.process(scenario()))
        assert duration == pytest.approx(
            cloud.spec.vm.suspend_time + cloud.spec.vm.resume_time, rel=0.2
        )


    def test_a_node_failing_during_the_loadvm_pause_fails_the_resume(self):
        cloud, hyp = self._env()
        device = SparseDevice(cloud.spec.vm.disk_size, block_size=256 * 1024)
        GuestFileSystem.format(device)
        vm = VMInstance("vm-z", cloud.spec.vm)
        define = cloud.jittered(cloud.spec.vm.define_time, ("define", vm.instance_id))
        loadvm = cloud.jittered(cloud.spec.vm.resume_time, ("loadvm", vm.instance_id))

        def killer():
            yield cloud.env.timeout(define + loadvm / 2)
            hyp.node.fail()

        cloud.process(killer())
        with pytest.raises(FailureInjected):
            cloud.run(cloud.process(hyp.resume_from_snapshot(vm, device)))
        assert vm.state is not VMState.RUNNING


class TestFailureInjector:
    def test_scheduled_failure(self):
        cloud = Cloud(SMALL)
        injector = FailureInjector(cloud)
        injector.fail_at(5.0, "node-002")
        cloud.run()
        assert not cloud.node("node-002").alive
        assert [e.node for e in injector.history] == ["node-002"]
        assert injector.history[0].time == pytest.approx(5.0)

    def test_failure_in_the_past_rejected(self):
        cloud = Cloud(SMALL)
        cloud.env._now = 10.0
        with pytest.raises(SimulationError):
            FailureInjector(cloud).fail_at(5.0, "node-000")

    def test_poisson_failures_deterministic(self):
        times_a = FailureInjector(Cloud(SMALL)).poisson_failures(mtbf=100.0, horizon=500.0)
        times_b = FailureInjector(Cloud(SMALL)).poisson_failures(mtbf=100.0, horizon=500.0)
        assert times_a == times_b
        assert all(t < 500.0 for t in times_a)
