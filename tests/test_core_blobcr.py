"""Integration tests of the BlobCR core (repository, mirroring, proxy, GC)."""

from dataclasses import replace

import pytest

from repro.cluster import Cloud
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
            out["ckpt"] = ckpt
            out["v1"], out["v2"] = first.version, second.version

        cloud.run(cloud.process(scenario()))
        chunk = SMALL.blobseer.chunk_size
        assert repo.snapshot_incremental_size(out["ckpt"], out["v1"]) == chunk
        assert repo.snapshot_incremental_size(out["ckpt"], out["v2"]) == chunk

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
        cloud.node("node-003").fail()
        provider = repo.client.providers.get("node-003")
        assert not provider.alive


class TestMirroringModule:
    def _module(self):
        cloud, repo = make_repo()
        out = {}

        def setup():
            blob = yield from repo.upload_base_image(
                "node-000", build_base_image(SMALL, os_bytes=5_000_000, os_files=4))
            out["blob"] = blob

        cloud.run(cloud.process(setup()))
        module = MirroringModule(
            repo, "node-001", "vm-test", out["blob"], disk_size=SMALL.vm.disk_size
        )
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
        client.write(module.base_blob_id, 0, LiteralBytes(b"a later version"))
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
