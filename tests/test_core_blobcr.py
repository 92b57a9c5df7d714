"""Integration tests of the BlobCR core (repository, mirroring, proxy, GC)."""

from dataclasses import replace

import pytest

from repro.blobseer import ChunkKey
from repro.cluster import Cloud
from repro.cluster.hypervisor import BOOT_READ_BYTES
from repro.core import (
    BlobCRDeployment,
    CheckpointRepository,
    MirroringModule,
    SnapshotGarbageCollector,
    build_base_image,
)
from repro.util import LiteralBytes, SyntheticBytes
from repro.util.config import GRAPHENE, DedupSpec
from repro.util.errors import SnapshotError, StorageError
from repro.util.units import MB

SMALL = GRAPHENE.scaled(compute_nodes=6, service_nodes=3)


def make_repo():
    cloud = Cloud(SMALL)
    return cloud, CheckpointRepository(cloud)


class TestCheckpointRepository:
    def test_upload_and_read_base_image(self):
        cloud, repo = make_repo()
        image = build_base_image(SMALL, os_bytes=20_000_000, os_files=8)
        out = {}

        def scenario():
            blob = yield from repo.upload_base_image("node-000", image)
            data = yield from repo.read_range("node-001", blob, 0, 4 * 1024 * 1024)
            out["blob"] = blob
            out["head"] = data

        cloud.run(cloud.process(scenario()))
        # The image content is striped into the repository and reads back
        # identically (here: the FS metadata region at the start).
        assert out["head"].read(0, 1024) == image.read(0, 1024).read()
        assert repo.total_stored_bytes > 20_000_000

    def test_commit_blocks_creates_incremental_versions(self):
        cloud, repo = make_repo()
        out = {}

        def scenario():
            blob = yield from repo.upload_base_image(
                "node-000", build_base_image(SMALL, os_bytes=5_000_000, os_files=4))
            ckpt = yield from repo.clone_image("node-000", blob)
            chunk = SMALL.blobseer.chunk_size
            first = yield from repo.commit_blocks(
                "node-001", ckpt, {10: SyntheticBytes("a", chunk)}, chunk)
            second = yield from repo.commit_blocks(
                "node-001", ckpt, {11: SyntheticBytes("b", chunk)}, chunk)
            out["first"], out["second"] = first, second

        cloud.run(cloud.process(scenario()))
        chunk = SMALL.blobseer.chunk_size
        first, second = out["first"], out["second"]
        assert second.version == first.version + 1
        # each snapshot ships only the block it committed
        assert first.logical_bytes == first.bytes_written == chunk
        assert second.logical_bytes == second.bytes_written == chunk

    def test_a_compressed_read_ships_fewer_bytes(self):
        """With zlib on, a read moves the chunks' stored footprint, then inflates."""

        def timed_read(spec):
            cloud = Cloud(spec)
            repo = CheckpointRepository(cloud)
            out = {}

            def scenario():
                blob = yield from repo.upload_base_image("node-000", image)
                started = cloud.now
                out["data"] = yield from repo.read_range("node-001", blob, 0, 4 * MB)
                out["took"] = cloud.now - started

            cloud.run(cloud.process(scenario()))
            assert out["data"].read() == image.read(0, 4 * MB).read()
            return out["took"]

        image = build_base_image(SMALL, os_bytes=5_000_000, os_files=4)
        zlib = replace(SMALL.blobseer, dedup=DedupSpec(enabled=True, codec="zlib"))
        assert timed_read(replace(SMALL, blobseer=zlib)) < timed_read(SMALL)

    def test_provider_fails_with_node(self):
        cloud, repo = make_repo()
        place_many = repo.client.providers.place_many
        assert any("node-003" in placed for placed in place_many([1] * 12))
        cloud.node("node-003").fail()
        # no chunk is placed on the failed node's provider any more
        assert all("node-003" not in placed for placed in place_many([1] * 12))


class TestMirroringModule:
    def _module(self):
        cloud, repo = make_repo()
        out = {}

        def setup():
            blob = yield from repo.upload_base_image(
                "node-000", build_base_image(SMALL, os_bytes=5_000_000, os_files=4))
            out["blob"] = blob

        cloud.run(cloud.process(setup()))
        module = MirroringModule(repo, "node-001", "vm-test", out["blob"])
        return cloud, repo, module

    def test_reads_fall_through_to_base(self):
        cloud, repo, module = self._module()
        base_head = repo.client.read(module.base_blob_id, 0, 1024).read()
        assert module.read(0, 1024).read() == base_head

    def test_snapshot_device_reads_its_size_once(self, monkeypatch):
        """A published version is immutable: no version lookup per read."""
        from repro.core.device import RemoteBlobDevice

        cloud, repo, module = self._module()
        client = repo.client
        device = RemoteBlobDevice(client, module.base_blob_id, size=SMALL.vm.disk_size)
        expected = client.read(module.base_blob_id, 4096, 1024).read()
        client.write_batch(module.base_blob_id, [(0, LiteralBytes(b"a later version"))])
        monkeypatch.setattr(client, "size", None)  # any call would raise
        assert device.read(4096, 1024).read() == expected
        assert device.read(SMALL.vm.disk_size - 8, 8).read() == bytes(8)

    def test_snapshot_device_is_read_only(self):
        from repro.core.device import RemoteBlobDevice

        cloud, repo, module = self._module()
        device = RemoteBlobDevice(repo.client, module.base_blob_id)
        before = device.read(0, 1024).read()
        with pytest.raises(StorageError, match="read-only"):
            device.write(0, LiteralBytes(b"x"))
        with pytest.raises(StorageError, match="read-only"):
            device.writev([(0, LiteralBytes(b"x")), (4096, LiteralBytes(b"y"))])
        assert device.read(0, 1024).read() == before

    def test_writes_stay_local_and_dirty(self):
        cloud, repo, module = self._module()
        module.write(1_000_000, LiteralBytes(b"local-change"))
        assert module.dirty_bytes > 0
        assert module.read(1_000_000, 12).read() == b"local-change"
        # the repository is untouched until COMMIT
        stored_before = repo.total_stored_bytes
        assert stored_before == repo.total_stored_bytes

    def test_commit_before_clone_rejected(self):
        cloud, repo, module = self._module()
        module.write(0, LiteralBytes(b"x"))
        with pytest.raises(SnapshotError):
            cloud.run(cloud.process(module.commit()))

    def test_clone_commit_roundtrip(self):
        cloud, repo, module = self._module()
        module.write(2_000_000, SyntheticBytes("payload", 600_000))
        out = {}

        def scenario():
            yield from module.clone()
            result = yield from module.commit()
            out["result"] = result

        cloud.run(cloud.process(scenario()))
        result = out["result"]
        assert result.bytes_written >= 600_000
        data = repo.client.read(
            module.checkpoint_blob_id, 2_000_000, 600_000, version=result.version
        )
        assert data.read(0, 4096) == SyntheticBytes("payload", 600_000).read(0, 4096)
        # second commit only ships newly dirtied blocks
        module.write(2_000_000, LiteralBytes(b"tiny"))

        def second():
            res = yield from module.commit()
            out["second"] = res

        cloud.run(cloud.process(second()))
        assert out["second"].bytes_written <= 2 * SMALL.checkpoint.cow_block_size


class TestBlobCRDeploymentLifecycle:
    def _deployed(self, count=3):
        cloud = Cloud(SMALL)
        deployment = BlobCRDeployment(cloud)

        def scenario():
            yield from deployment.deploy(count, processes_per_instance=1)

        cloud.run(cloud.process(scenario()))
        return cloud, deployment

    def test_deploy_boots_instances_on_distinct_nodes(self):
        cloud, deployment = self._deployed(3)
        nodes = {inst.node_name for inst in deployment.instances}
        assert len(nodes) == 3
        for inst in deployment.instances:
            assert inst.vm.is_running
            assert inst.vm.filesystem.exists("/var/log/syslog")

    def test_deploy_more_than_nodes_rejected(self):
        cloud = Cloud(SMALL)
        deployment = BlobCRDeployment(cloud)
        with pytest.raises(Exception):
            cloud.run(cloud.process(deployment.deploy(100)))

    def test_checkpoint_restart_cycle_preserves_files(self):
        cloud, deployment = self._deployed(2)
        out = {}

        def scenario():
            inst = deployment.instances[0]
            payload = SyntheticBytes("cycle", 3 * MB)
            yield from deployment.guest_write_and_sync(inst, "/ckpt/state.dat", payload)
            checkpoint = yield from deployment.checkpoint_all()
            out["snapshot_bytes"] = checkpoint.records[inst.instance_id].snapshot_bytes
            yield from deployment.restart_all(checkpoint)
            restored = deployment.instances[0].vm.filesystem.read_file("/ckpt/state.dat")
            out["match"] = restored.read(0, 65536) == payload.read(0, 65536)
            out["hosts_changed"] = all(
                i.node_name != "node-000" or i.instance_id != "vm-000"
                for i in deployment.instances
            )

        cloud.run(cloud.process(scenario()))
        assert out["snapshot_bytes"] >= 3 * MB
        assert out["match"]

    def test_incremental_snapshots_shrink(self):
        cloud, deployment = self._deployed(1)
        out = {}

        def scenario():
            inst = deployment.instances[0]
            yield from deployment.guest_write_and_sync(
                inst, "/ckpt/a.dat", SyntheticBytes("a", 5 * MB))
            first = yield from deployment.checkpoint_all()
            yield from deployment.guest_write_and_sync(
                inst, "/ckpt/b.dat", SyntheticBytes("b", 1 * MB))
            second = yield from deployment.checkpoint_all()
            out["first"] = first.max_snapshot_bytes
            out["second"] = second.max_snapshot_bytes

        cloud.run(cloud.process(scenario()))
        assert out["second"] < out["first"]
        assert out["second"] >= 1 * MB

    def test_checkpoint_image_download(self):
        cloud, deployment = self._deployed(1)
        out = {}

        def scenario():
            inst = deployment.instances[0]
            yield from deployment.guest_write_and_sync(
                inst, "/ckpt/x.dat", SyntheticBytes("x", MB))
            checkpoint = yield from deployment.checkpoint_all()
            record = checkpoint.records[inst.instance_id]
            image = yield from deployment.download_checkpoint_image("node-005", record)
            out["size"] = image.size

        cloud.run(cloud.process(scenario()))
        assert out["size"] > 0


class TestGarbageCollector:
    def test_gc_reclaims_only_obsoleted_chunks(self):
        cloud = Cloud(SMALL)
        deployment = BlobCRDeployment(cloud)
        out = {}

        def scenario():
            yield from deployment.deploy(1)
            inst = deployment.instances[0]
            checkpoints = []
            for epoch in range(3):
                yield from deployment.guest_write_and_sync(
                    inst, f"/ckpt/state-{epoch}.dat", SyntheticBytes(("gc", epoch), 2 * MB))
                checkpoints.append((yield from deployment.checkpoint_all()))
            out["checkpoints"] = checkpoints

        cloud.run(cloud.process(scenario()))
        repo = deployment.repository
        before = repo.total_stored_bytes
        collector = SnapshotGarbageCollector(repo, keep_latest=1)
        report = collector.collect()
        assert report.reclaimed_bytes > 0
        assert repo.total_stored_bytes == before - report.reclaimed_bytes
        # The latest snapshot must still be fully readable.
        last = out["checkpoints"][-1]
        inst_id = deployment.instances[0].instance_id
        blob, version = last.records[inst_id].snapshot_ref
        data = repo.client.read(blob, 0, 1024, version=version)
        assert data.size == 1024

    def test_invalid_keep_latest(self):
        cloud, repo = make_repo()
        with pytest.raises(ValueError):
            SnapshotGarbageCollector(repo, keep_latest=0)


def _window_keys(mirroring, nbytes):
    """The chunk keys behind a lazy boot's window of ``mirroring``: the keys of
    every extent's stripes (the set the prefetch cache was first defined by)."""
    client = mirroring.repository.client
    blob_id, version = mirroring.base_blob_id, mirroring.remote.version
    size = int(min(nbytes, mirroring.remote.blob_size))
    if size == 0:
        return set()
    last = (size - 1) // client.version_manager.get(blob_id).chunk_size
    return {
        ChunkKey(run.blob_id, stripe + run.first_chunk_id - run.first_stripe)
        for run, first, stop in client.metadata.extents_in_range(blob_id, version, 0, last)
        for stripe in range(first, stop + 1)
    }


class TestLazyBootPrefetchSplit:
    """Each lazy boot charges ``nbytes * |window keys not yet pulled| / |window
    keys|`` to the repository and the rest to its node's disk; a boot's keys
    count as pulled once its fetch has finished."""

    def _cycle(self, monkeypatch, spec=SMALL, adaptive_prefetch=True):
        cloud = Cloud(spec)
        deployment = BlobCRDeployment(
            cloud,
            base_image=build_base_image(spec, os_bytes=64 * MB, os_files=8),
            adaptive_prefetch=adaptive_prefetch,
        )
        pulled = set()
        boots = {}  # label -> lazy boots started so far
        expected, charged, crossing = {}, {}, []

        def watched(fetch, label, mirroring):
            window = _window_keys(mirroring, BOOT_READ_BYTES)
            if adaptive_prefetch and window:
                miss = BOOT_READ_BYTES * (len(window - pulled) / len(window))
            else:
                miss = BOOT_READ_BYTES * 1.0
            boots[label] = boots.get(label, 0) + 1
            expected[label, boots[label]] = (miss, BOOT_READ_BYTES - miss)
            crossing.append(len({key.blob_id for key in window}) > 1)
            result = yield from fetch
            pulled.update(window)
            return result

        real_process = cloud.process

        def process(generator, name=""):
            if name.startswith("lazy-boot:"):
                instance_id = name.split(":", 1)[1]
                mirroring = deployment.instance_by_id(instance_id).backend
                generator = watched(generator, f"boot:{instance_id}", mirroring)
            return real_process(generator, name=name)

        def charge(label, side, nbytes):
            boot, _, where = label.rpartition(":")
            if where == side and boot.startswith("boot:"):
                key = (boot, boots[boot])
                pair = charged.setdefault(key, [0.0, 0.0])
                pair[side == "prefetched"] += nbytes

        real_fetch = deployment.repository.fetch_hot_content

        def fetch_hot_content(node_name, nbytes, label=""):
            charge(label, "remote", nbytes)
            return real_fetch(node_name, nbytes, label=label)

        disk_type = type(cloud.node("node-000").disk)
        real_read = disk_type.read

        def read(disk, nbytes, label=""):
            charge(label, "prefetched", nbytes)
            return real_read(disk, nbytes, label=label)

        monkeypatch.setattr(cloud, "process", process)
        monkeypatch.setattr(deployment.repository, "fetch_hot_content", fetch_hot_content)
        monkeypatch.setattr(disk_type, "read", read)

        def scenario():
            yield from deployment.deploy(4)
            for instance in deployment.instances:
                yield from deployment.guest_write_and_sync(
                    instance, "/ckpt/state.dat", SyntheticBytes(instance.instance_id, MB)
                )
            checkpoint = yield from deployment.checkpoint_all()
            yield from deployment.restart_all(checkpoint)

        cloud.run(real_process(scenario()))
        assert len(expected) == 8  # four deploy boots, four restart boots
        assert {key: tuple(pair) for key, pair in charged.items()} == expected
        assert any(crossing[4:])  # a restart window crosses runs of two images
        return expected

    def test_a_boot_reads_what_its_peers_pulled_from_its_local_disk(self, monkeypatch):
        split = self._cycle(monkeypatch)
        assert any(0 < miss < BOOT_READ_BYTES for miss, _ in split.values())

    def test_the_split_holds_with_dedup(self, monkeypatch):
        spec = replace(SMALL, blobseer=replace(SMALL.blobseer, dedup=DedupSpec(enabled=True)))
        split = self._cycle(monkeypatch, spec)
        assert any(0 < miss < BOOT_READ_BYTES for miss, _ in split.values())

    def test_without_adaptive_prefetch_every_boot_is_remote(self, monkeypatch):
        split = self._cycle(monkeypatch, adaptive_prefetch=False)
        assert set(split.values()) == {(BOOT_READ_BYTES * 1.0, 0.0)}


def test_lazy_boots_build_no_chunk_key(monkeypatch):
    """The boot path's prefetch state is chunk-id ranges: a deploy and a
    restart of eight instances construct no ``ChunkKey`` (one per hot chunk
    of every boot when it was a key set)."""
    spec = GRAPHENE.scaled(compute_nodes=9, service_nodes=3)
    cloud = Cloud(spec)
    deployment = BlobCRDeployment(cloud)
    built = []
    real_new = ChunkKey.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    def scenario():
        yield from deployment.deploy(8)
        checkpoint = yield from deployment.checkpoint_all()
        yield from deployment.restart_all(checkpoint)

    monkeypatch.setattr(ChunkKey, "__new__", counting_new)
    cloud.run(cloud.process(scenario()))
    assert all(instance.vm.is_running for instance in deployment.instances)
    assert len(deployment.instances) == 8
    assert built == []


def test_lazy_boots_over_an_image_smaller_than_the_boot_window():
    """A base image shorter than the boot window (its blob ends at the image's
    written extent) boots: the window is clamped to the base snapshot, whose
    every stored chunk the boots then count as pulled."""
    cloud = Cloud(SMALL)
    deployment = BlobCRDeployment(cloud, base_image=build_base_image(SMALL, os_bytes=40 * MB))

    def scenario():
        yield from deployment.deploy(2)

    cloud.run(cloud.process(scenario()))
    assert [instance.vm.is_running for instance in deployment.instances] == [True, True]
    client, blob_id = deployment.repository.client, deployment.base_blob_id
    blob_size = client.size(blob_id)
    assert blob_size < min(BOOT_READ_BYTES, SMALL.vm.disk_size)
    version = client.latest_version(blob_id)
    assert deployment._prefetched == client.chunk_ranges(blob_id, 0, blob_size, version=version)
