"""Tests for the public ``repro.api`` facade and the backend registry."""

import importlib
import json
import math
import sys
from dataclasses import replace

import pytest

from repro.api import (
    CheckpointResult,
    DeployResult,
    RestartResult,
    Session,
    backend_names,
    create_backend,
    get_backend,
    register_backend,
)
from repro.baselines import Qcow2DiskDeployment, Qcow2FullDeployment
from repro.blobseer import ChunkKey
from repro.cli import main
from repro.cluster import Cloud
from repro.core import BlobCRDeployment, CoordinatedCheckpoint
from repro.core.backends import _BACKENDS
from repro.util.config import GRAPHENE, DedupSpec
from repro.util.errors import (
    CheckpointError,
    ChunkNotFoundError,
    ConfigurationError,
    RestartError,
    StorageError,
)

SMALL = GRAPHENE.scaled(compute_nodes=6, service_nodes=3)

BUILTIN_BACKENDS = ["blobcr", "qcow2-disk", "qcow2-full"]


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        assert backend_names() == BUILTIN_BACKENDS

    def test_lookup_is_case_insensitive(self):
        assert get_backend("BlobCR").factory is BlobCRDeployment

    def test_create_returns_the_strategy_classes(self):
        assert isinstance(create_backend("blobcr", Cloud(SMALL)), BlobCRDeployment)
        assert isinstance(create_backend("qcow2-disk", Cloud(SMALL)), Qcow2DiskDeployment)
        assert isinstance(create_backend("qcow2-full", Cloud(SMALL)), Qcow2FullDeployment)

    def test_unknown_backend_error_lists_available_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_backend("zfs")
        message = str(excinfo.value)
        for name in BUILTIN_BACKENDS:
            assert name in message

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend("blobcr")(BlobCRDeployment)

    def test_third_party_backend_registers_and_unregisters(self):
        @register_backend("null-backend", description="a backend that deploys nothing")
        def factory(cloud, knob: int = 1):
            raise NotImplementedError

        try:
            info = get_backend("null-backend")
            assert info.description == "a backend that deploys nothing"
            assert not info.live_migration  # a plain function implements no migration
            assert list(info.options) == ["knob"]
            assert "null-backend" in backend_names()
        finally:
            _BACKENDS.pop("null-backend", None)

    def test_option_schema_from_signature(self):
        info = get_backend("blobcr")
        assert "adaptive_prefetch" in info.options
        assert info.options["adaptive_prefetch"].default is True

    @pytest.mark.parametrize(
        "name, options, dropped",
        [
            ("blobcr", ["repository", "base_image", "adaptive_prefetch", "instance_prefix"],
             "boot_read_bytes"),
            ("qcow2-disk", ["instance_prefix"], "pvfs"),
            ("qcow2-full", ["instance_prefix"], "base_image"),
        ],
    )
    def test_builtin_option_names_are_pinned(self, name, options, dropped):
        """Calibration comes from the cloud, never from a backend option."""
        assert list(get_backend(name).options) == options
        with pytest.raises(ConfigurationError, match=f"does not accept option.*{dropped}"):
            create_backend(name, Cloud(SMALL), **{dropped: None})

    def test_unknown_option_rejected_listing_schema(self):
        with pytest.raises(ConfigurationError) as excinfo:
            create_backend("blobcr", Cloud(SMALL), compression="lz4")
        message = str(excinfo.value)
        assert "compression" in message
        assert "adaptive_prefetch" in message

    def test_registered_backend_addressable_as_approach(self):
        from repro.scenarios.workloads import make_deployment, split_approach

        @register_backend("toy", description="qcow2-disk under another name")
        def factory(cloud):
            return Qcow2DiskDeployment(cloud)

        try:
            assert split_approach("toy-app") == ("toy", "app")
            assert isinstance(make_deployment("toy-blcr", SMALL), Qcow2DiskDeployment)
        finally:
            _BACKENDS.pop("toy", None)

    def test_dashless_approach_rejected(self):
        from repro.scenarios.workloads import split_approach

        with pytest.raises(ConfigurationError, match="expected"):
            split_approach("zfs")

    def test_staged_dump_on_full_snapshots_rejected(self):
        from repro.scenarios.workloads import split_approach

        for label in ("qcow2-full-app", "qcow2-full-blcr"):
            with pytest.raises(ConfigurationError, match="expected"):
                split_approach(label)

    def test_capability_summaries(self, capsys):
        assert main(["--list-backends"]) == 0
        lines = capsys.readouterr().out.splitlines()
        listed = {
            line.split(":")[0]: lines[index + 1].split("capabilities: ")[1]
            for index, line in enumerate(lines)
            if not line.startswith(" ")
        }
        assert listed == {
            "blobcr": "live-migration",
            "qcow2-disk": "-",
            "qcow2-full": "live-migration",
        }

    def test_live_migration_is_read_off_the_class(self):
        """What a backend can do is what its class implements: a class with
        ``migrate_instance`` is advertised and migrates through the session,
        one without is refused -- with nothing declared at registration."""

        class Migrating(BlobCRDeployment):
            pass

        class Pinned(Qcow2DiskDeployment):
            pass

        register_backend("test-migrating")(Migrating)
        register_backend("test-pinned")(Pinned)
        try:
            assert get_backend("test-migrating").live_migration
            assert not get_backend("test-pinned").live_migration
            session = Session.from_spec(SMALL)
            session.deploy("test-migrating", n=1)
            session.guest_write("vm-000", "/ckpt/state.dat", b"moved" * 1000)
            result = session.migrate(mode="post-copy")
            assert result.target_node == session.deployment.instances[0].node_name
            assert session.guest_read("vm-000", "/ckpt/state.dat") == b"moved" * 1000
            pinned = Session.from_spec(SMALL)
            pinned.deploy("test-pinned", n=1)
            with pytest.raises(ConfigurationError, match="'test-pinned' does not support live"):
                pinned.migrate()
        finally:
            _BACKENDS.pop("test-migrating", None)
            _BACKENDS.pop("test-pinned", None)


class TestSessionLifecycle:
    @pytest.mark.parametrize("backend", BUILTIN_BACKENDS)
    def test_checkpoint_kill_restart_per_backend(self, backend):
        session = Session.from_spec(SMALL)
        deployed = session.deploy(backend, n=2)
        assert isinstance(deployed, DeployResult)
        assert deployed.instances == 2
        assert deployed.duration_s > 0
        assert session.backend == backend

        payload = b"state " * 50_000
        session.guest_write("vm-000", "/ckpt/state.dat", payload)
        checkpoint = session.checkpoint(tag="api-e2e")
        assert isinstance(checkpoint, CheckpointResult)
        assert checkpoint.duration_s > 0
        assert checkpoint.max_snapshot_bytes > 0
        assert set(checkpoint.instance_ids) == set(deployed.instance_ids)

        session.kill()
        restart = session.restart(checkpoint)
        assert isinstance(restart, RestartResult)
        assert restart.duration_s > 0
        assert set(restart.instance_ids) == set(deployed.instance_ids)
        if backend != "qcow2-full":  # full snapshots resume from RAM instead
            assert session.guest_read("vm-000", "/ckpt/state.dat") == payload

    def test_restart_defaults_to_latest_checkpoint(self):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        session.guest_write("vm-000", "/ckpt/a.dat", b"a" * 10_000)
        session.checkpoint()
        session.guest_write("vm-000", "/ckpt/b.dat", b"b" * 10_000)
        latest = session.checkpoint()
        restart = session.restart()
        assert restart.bytes_restored > 0
        assert session.checkpoints[-1] is latest

    def test_interleaved_sessions_each_get_a_lone_sessions_pids(self):
        """Every cloud is its own guest pid namespace; building another cloud
        must not renumber (or reset) the processes of one alive beside it.
        Pids reach checkpoint content: they name the BLCR context files."""

        def blcr_files(session):
            session.drive(CoordinatedCheckpoint(session.deployment).global_checkpoint())
            return [
                session.deployment.instance_by_id(i).filesystem.listdir("/ckpt")
                for i in session.instance_ids
            ]

        lone = Session.from_spec(SMALL)
        lone.deploy("blobcr", n=2)
        first = Session.from_spec(SMALL)
        first.cloud  # built before the second session deploys
        second = Session.from_spec(SMALL)
        second.deploy("blobcr", n=2)
        first.deploy("blobcr", n=2)
        for session in (lone, first, second):
            pids = [pid for i in session.deployment.instances for pid in i.vm.processes]
            assert sorted(pids) == [1000, 1001]
        assert blcr_files(first) == blcr_files(second) == blcr_files(lone)

    def test_building_a_cloud_does_not_reuse_a_live_clouds_pids(self):
        """A cloud's pid namespace keeps counting across its deployments, even
        when another cloud is built between them."""
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        Session.from_spec(SMALL).cloud
        other = create_backend("blobcr", session.cloud)
        session.drive(other.deploy(1, processes_per_instance=1))
        deployments = (session.deployment, other)
        pids = [pid for d in deployments for i in d.instances for pid in i.vm.processes]
        assert pids == [1000, 1001]

    def test_deploy_options_forwarded(self):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1, adaptive_prefetch=False)
        assert session.deployment.adaptive_prefetch is False

    def test_advance_moves_the_clock(self):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        before = session.now
        assert session.advance(12.5) == pytest.approx(before + 12.5)


class TestSessionCollect:
    """``Session.collect``: the public route to the snapshot collector."""

    @staticmethod
    def three_checkpoints():
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=2)
        checkpoints = []
        for fill in (1, 2, 3):
            for instance_id in session.instance_ids:
                session.guest_write(instance_id, "/ckpt/state.dat", bytes([fill]) * 300_000)
            checkpoints.append(session.checkpoint())
        return session, checkpoints

    def test_collect_under_an_instance_rolled_back_to_an_older_checkpoint(self):
        session, checkpoints = self.three_checkpoints()
        session.restart(checkpoints[0])
        before = session.deployment.storage_used_bytes()
        report = session.collect(keep_latest=1)
        # the disks stand on the first checkpoint: it survives, the second goes
        assert session.checkpoints == (checkpoints[0], checkpoints[2])
        assert report.reclaimed_bytes > 0
        assert session.deployment.storage_used_bytes() == before - report.reclaimed_bytes
        for instance_id in session.instance_ids:
            assert session.guest_read(instance_id, "/ckpt/state.dat") == bytes([1]) * 300_000
            session.guest_write(instance_id, "/ckpt/more.dat", b"more" * 1000)
        session.restart(session.checkpoint())
        for instance_id in session.instance_ids:
            assert session.guest_read(instance_id, "/ckpt/state.dat") == bytes([1]) * 300_000
            assert session.guest_read(instance_id, "/ckpt/more.dat") == b"more" * 1000

    def test_restart_from_a_collected_checkpoint_is_refused_before_anything_is_killed(self):
        session, checkpoints = self.three_checkpoints()
        session.collect(keep_latest=1, pinned=[checkpoints[0]])
        assert session.checkpoints == (checkpoints[0], checkpoints[2])
        with pytest.raises(RestartError, match="checkpoint 2 .*collected"):
            session.restart(checkpoints[1])
        assert all(instance.vm.is_running for instance in session.deployment.instances)
        session.restart(checkpoints[0])  # the pinned one is still there
        assert session.guest_read("vm-000", "/ckpt/state.dat") == bytes([1]) * 300_000

    def test_a_second_pass_finds_nothing(self):
        session, _checkpoints = self.three_checkpoints()
        assert session.collect().dropped_versions
        again = session.collect()
        assert (again.dropped_versions, again.deleted_chunks, again.reclaimed_bytes) == ([], 0, 0)

    @pytest.mark.parametrize("codec", ["identity", "zlib"])
    def test_collect_with_the_dedup_layer_on(self, codec):
        """Repeating content is stored once, by whoever wrote it first; it stays
        while a retained checkpoint of any instance shares it."""
        dedup = DedupSpec(enabled=True, codec=codec)
        session = Session.from_spec(replace(SMALL, blobseer=replace(SMALL.blobseer, dedup=dedup)))
        session.deploy("blobcr", n=3)

        def state(epoch):  # a part every instance rewrites alike, a part that never changes
            return bytes([epoch]) * 600_000 + b"\x07" * 1_500_000

        checkpoints, used = [], []
        for epoch in (1, 2, 3):
            for instance_id in session.instance_ids:
                session.guest_write(instance_id, "/ckpt/state.dat", state(epoch))
            checkpoints.append(session.checkpoint())
            used.append(session.deployment.storage_used_bytes())
        # three instances rewrote their state twice: that took less room than one's did
        assert used[2] - used[0] < 2 * len(state(1))
        repository = session.deployment.repository
        before = used[2]
        indexed = len(repository.dedup.index)

        report = session.collect(keep_latest=1)
        assert session.checkpoints == (checkpoints[2],)
        assert report.reclaimed_bytes > 0
        assert session.deployment.storage_used_bytes() == before - report.reclaimed_bytes < before
        assert 0 < len(repository.dedup.index) < indexed
        again = session.collect(keep_latest=1)
        assert (again.dropped_versions, again.deleted_chunks, again.reclaimed_bytes) == ([], 0, 0)

        with pytest.raises(RestartError, match="checkpoint 1 .*collected"):
            session.restart(checkpoints[0])
        assert all(instance.vm.is_running for instance in session.deployment.instances)
        for instance_id in session.instance_ids:  # what the crash must not take with it
            session.guest_write(instance_id, "/ckpt/state.dat", b"lost with the crash")
        session.restart(checkpoints[2])
        for instance_id in session.instance_ids:
            assert session.guest_read(instance_id, "/ckpt/state.dat") == state(3)

    @pytest.mark.parametrize("backend", ["qcow2-disk", "qcow2-full"])
    def test_a_backend_without_a_repository_is_named(self, backend):
        session = Session.from_spec(SMALL)
        session.deploy(backend, n=1)
        with pytest.raises(ConfigurationError, match=f"{backend!r} keeps no BlobSeer repository"):
            session.collect()


class TestSessionProviderLoss:
    """A restart reads its state back from the providers the stripes were placed on."""

    @staticmethod
    def state_holders(replication):
        """A checkpoint of two instances and, per stripe of one's state file,
        the key of the chunk that holds it and the nodes it was placed on."""
        blobseer = replace(SMALL.blobseer, replication=replication)
        session = Session.from_spec(replace(SMALL, blobseer=blobseer))
        session.deploy("blobcr", n=2)
        payload = b"state " * 50_000
        session.guest_write("vm-000", "/ckpt/state.dat", payload)
        checkpoint = session.checkpoint()
        client = session.deployment.repository.client
        blob, version = checkpoint.handle.records["vm-000"].snapshot_ref
        chunk = client.version_manager.get(blob).chunk_size
        instance = session.deployment.instance_by_id("vm-000")
        stripes = []
        for offset, length in instance.vm.filesystem.file_extents("/ckpt/state.dat"):
            first, last = offset // chunk, (offset + length - 1) // chunk
            for run, lo, hi in client.metadata.extents_in_range(blob, version, first, last):
                for stripe in range(lo, hi + 1):
                    index = stripe - run.first_stripe
                    key = ChunkKey(run.stored.blob_id, run.stored.first_chunk_id + index)
                    stripes.append((key, run.stored.placements[index]))
        return session, checkpoint, payload, stripes

    def test_restart_over_a_lost_chunk_names_it(self):
        session, checkpoint, _payload, stripes = self.state_holders(replication=1)
        for _key, placed in stripes:
            for node in placed:
                session.cloud.node(node).fail()
        with pytest.raises(ChunkNotFoundError) as raised:
            session.restart(checkpoint)
        assert str(raised.value) == f"chunk {stripes[0][0]} is not stored on any live provider"

    def test_restart_reads_every_byte_from_the_surviving_replica(self):
        session, checkpoint, payload, stripes = self.state_holders(replication=2)
        victims = {placed[0] for _key, placed in stripes}
        assert all(len(placed) == 2 and placed[1] not in victims for _key, placed in stripes)
        for node in victims:
            session.cloud.node(node).fail()
        session.restart(checkpoint)
        assert session.guest_read("vm-000", "/ckpt/state.dat") == payload


class TestSessionFailedCheckpoint:
    def test_a_failed_checkpoint_leaves_its_writes_to_the_next(self):
        """A checkpoint whose COMMIT fails loses nothing: the next one holds
        what the failed one would have, and a restart reads it back."""
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        session.guest_write("vm-000", "/data/a", b"A" * 300_000)
        client = session.deployment.repository.client

        def refuse(*args, **kwargs):
            del client.write_batch
            raise StorageError("write_batch refused")

        client.write_batch = refuse
        with pytest.raises(CheckpointError, match="write_batch refused"):
            session.checkpoint()
        session.guest_write("vm-000", "/data/b", b"B" * 1_000)
        session.restart(session.checkpoint())
        assert session.guest_read("vm-000", "/data/a") == b"A" * 300_000
        assert session.guest_read("vm-000", "/data/b") == b"B" * 1_000


def _deployed():
    session = Session.from_spec(SMALL)
    session.deploy("blobcr", n=1)
    return session


def _drive_on_a_dead_cloud():
    session = _deployed()
    for node in session.cloud.compute_nodes:
        node.fail()
    session.drive(iter(()))


def _restart_from_nothing():
    from repro.core.strategy import GlobalCheckpoint

    session = _deployed()
    empty = GlobalCheckpoint(index=1, started_at=0.0, finished_at=0.0)
    session.drive(session.deployment.restart_all(empty))


def _keep_nothing():
    from repro.core import CheckpointRepository, SnapshotGarbageCollector

    SnapshotGarbageCollector(CheckpointRepository(Cloud(SMALL)), keep_latest=0)


class TestSessionValidation:
    @pytest.mark.parametrize("count", [0, -3])
    def test_deploy_rejects_non_positive_counts(self, count):
        session = Session.from_spec(SMALL)
        with pytest.raises(ValueError, match="must be positive"):
            session.deploy("blobcr", n=count)

    @pytest.mark.parametrize("cls", [BlobCRDeployment, Qcow2DiskDeployment])
    def test_raw_deployment_rejects_non_positive_counts(self, cls):
        cloud = Cloud(SMALL)
        deployment = cls(cloud)
        with pytest.raises(ValueError, match="must be positive"):
            cloud.run(cloud.process(deployment.deploy(0)))

    def test_restart_from_empty_checkpoint_rejected(self):
        from repro.core.strategy import GlobalCheckpoint

        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        empty = GlobalCheckpoint(index=1, started_at=0.0, finished_at=0.0)
        deployment = session.deployment
        with pytest.raises(ValueError, match="records no"):
            session.drive(deployment.restart_all(empty))

    def test_restart_without_checkpoint_rejected(self):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        with pytest.raises(ValueError, match="no checkpoint"):
            session.restart()

    @pytest.mark.parametrize(
        "call, message",
        [
            (_drive_on_a_dead_cloud, "no live compute nodes"),
            (lambda: _deployed().advance(0), "non-finite duration"),
            (lambda: _deployed().restart(), "no checkpoint"),
            (lambda: BlobCRDeployment(Cloud(SMALL)).deploy(0), "must be positive"),
            (_restart_from_nothing, "records no"),
            (_keep_nothing, "keep_latest must be >= 1"),
        ],
    )
    def test_a_bad_argument_value_is_a_configuration_error(self, call, message):
        with pytest.raises(ConfigurationError, match=message):
            call()

    def test_restart_from_a_non_checkpoint_rejected(self):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        session.checkpoint()
        with pytest.raises(TypeError, match="checkpoint is a str, not a CheckpointResult"):
            session.restart("bogus")

    def test_second_deploy_rejected(self):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        with pytest.raises(ConfigurationError, match="already runs"):
            session.deploy("qcow2-disk", n=1)

    @pytest.mark.parametrize("seconds", [0, 0.0, -1.5, math.nan, math.inf, -math.inf])
    def test_advance_rejects_non_positive_durations(self, seconds):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        before = session.now
        with pytest.raises(ValueError, match="non-positive or non-finite duration"):
            session.advance(seconds)
        assert session.now == before  # the clock did not move

    @pytest.mark.parametrize(
        "data, kind", [(5, "int"), ([1, 2, 3], "list"), ("text", "str"), (None, "NoneType")]
    )
    def test_guest_write_rejects_data_that_is_not_bytes(self, data, kind):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        before = session.now
        with pytest.raises(TypeError, match=f"data must be bytes, .* got {kind}$"):
            session.guest_write("vm-000", "/a", data)
        assert session.now == before  # nothing was written

    @pytest.mark.parametrize("data", [bytearray(b"abc"), memoryview(b"abc")])
    def test_guest_write_takes_any_bytes_like(self, data):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        session.guest_write("vm-000", "/a", data)
        assert session.guest_read("vm-000", "/a") == b"abc"

    @pytest.mark.parametrize("method", ["guest_write", "guest_read"])
    def test_guest_io_rejects_a_path_that_is_not_a_str(self, method):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        args = (b"abc",) if method == "guest_write" else ()
        with pytest.raises(TypeError, match="path must be a str, got int"):
            getattr(session, method)("vm-000", 7, *args)

    @pytest.mark.parametrize("count", ["n", "processes_per_instance"])
    @pytest.mark.parametrize("value", ["2", 2.0, True])
    def test_deploy_rejects_a_count_that_is_not_an_int(self, count, value):
        session = Session.from_spec(SMALL)
        kind = type(value).__name__
        with pytest.raises(TypeError, match=f"^{count} must be an int, got {kind}$"):
            session.deploy("blobcr", **{count: value})
        assert session.now == 0.0

    def test_collect_rejects_a_keep_latest_that_is_not_an_int(self):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        session.checkpoint()
        with pytest.raises(TypeError, match="keep_latest must be an int, got str"):
            session.collect(keep_latest="a")
        assert len(session.checkpoints) == 1

    @pytest.mark.parametrize("seconds", ["1", None, True])
    def test_advance_rejects_a_duration_that_is_not_a_number(self, seconds):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        kind = type(seconds).__name__
        with pytest.raises(TypeError, match=f"seconds must be a number, got {kind}"):
            session.advance(seconds)

    @pytest.mark.parametrize(
        "paths, message",
        [
            (5, "demand_paths must be an iterable of str, got int"),
            ("/data/hot.dat", "demand_paths must be an iterable of str, got str"),
            (["/data/hot.dat", 7], "demand_paths must hold only str, got int"),
        ],
    )
    def test_migrate_rejects_demand_paths_that_are_not_str(self, paths, message):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        host = session.deployment.instances[0].node_name
        before = session.now
        with pytest.raises(TypeError, match=f"^{message}$"):
            session.migrate(mode="post-copy", demand_paths=paths)
        assert session.now == before and session.deployment.instances[0].node_name == host

    def test_drive_on_dead_cloud_rejected(self):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=1)
        for node in session.cloud.compute_nodes:
            node.fail()

        def _noop():
            yield session.cloud.env.timeout(1.0)

        with pytest.raises(ValueError, match="no live compute nodes"):
            session.drive(_noop())
        with pytest.raises(ValueError, match="no live compute nodes"):
            session.advance(5.0)

    def test_accessors_before_deploy_rejected(self):
        session = Session.from_spec(SMALL)
        with pytest.raises(ConfigurationError, match="call deploy"):
            _ = session.deployment
        with pytest.raises(ConfigurationError, match="call deploy"):
            session.checkpoint()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            Session().run_scenario("fig99")

    def test_misdirected_override_rejected(self):
        with pytest.raises(ConfigurationError, match="not selected"):
            Session().run_scenario("fig2", overrides={"ft.mtbf": 300})

    @pytest.mark.parametrize("field", ["batching", "persistence", "instrumentation"])
    def test_removed_solver_override_fields_rejected(self, field):
        with pytest.raises(
            ConfigurationError,
            match=f"unknown cluster override field cluster.solver.{field}",
        ):
            Session().run_scenario(
                "fig2", overrides={f"cluster.solver.{field}": False}
            )

    def test_foreign_cell_selector_rejected(self):
        with pytest.raises(ConfigurationError, match="outside the requested experiments"):
            Session().run_scenario("fig2", cells=["fig4:BlobCR-app:50MB"])


class TestScenarioParity:
    CELL = "fig2:BlobCR-app:4:50MB"

    def _cli_rows(self, capsys, extra=()):
        argv = ["--cells", self.CELL, "--json", "-", "--no-progress", *extra]
        assert main(argv) == 0
        out = capsys.readouterr().out
        return json.loads(out[out.index("{") :])["fig2"]["rows"]

    def test_fig2_rows_byte_identical_api_vs_cli(self, capsys):
        cli_rows = self._cli_rows(capsys)
        report = Session().run_scenario("fig2", cells=[self.CELL])
        assert json.dumps(report.rows, sort_keys=True) == json.dumps(cli_rows, sort_keys=True)
        assert report.cell_keys == (self.CELL,)
        assert report.experiment == "fig2"
        assert "fig2" in report.to_table()

    def test_fig2_rows_byte_identical_with_seed_and_workers(self, capsys):
        cli_rows = self._cli_rows(capsys, extra=["--seed", "7"])
        report = Session().run_scenario("fig2", cells=[self.CELL], seed=7, workers=2)
        assert json.dumps(report.rows, sort_keys=True) == json.dumps(
            cli_rows, sort_keys=True
        )

    def test_axis_override_matches_cli_semantics(self):
        report = Session().run_scenario(
            "ft",
            overrides={"ft.mtbf": 150, "ft.approach": "qcow2-full"},
        )
        assert report.cell_keys == ("ft:qcow2-full:150",)

    def test_wildcard_selector_matches_cli_semantics(self, capsys):
        # `blobcr-repro fig4 --cells 'fig*:...'` runs the cell; so must the
        # Session -- through run_scenario and trace, which share the check.
        selector, key = "fig*:BlobCR-app:50MB", "fig4:BlobCR-app:50MB"
        assert main(["fig4", "--cells", selector, "--list-cells"]) == 0
        assert capsys.readouterr().out.split() == [key]
        assert Session().run_scenario("fig4", cells=[selector]).cell_keys == (key,)
        assert Session().trace("fig4", cells=[selector]).cell_keys == (key,)
        with pytest.raises(ConfigurationError, match="outside the requested experiments"):
            Session().run_scenario("fig4", cells=["fig[23]:BlobCR-app"])

    def test_session_spec_flows_into_scenarios(self):
        default = Session().run_scenario("fig2", cells=[self.CELL])
        scaled = Session.from_spec(GRAPHENE.scaled(seed=99)).run_scenario(
            "fig2", cells=[self.CELL]
        )
        # A different base seed (different jitter draws) must reach the cells.
        assert default.rows != scaled.rows


class TestHarnessRetirement:
    def test_shim_module_is_gone(self):
        # The deprecated re-export shim was removed in 0.4.0; the scenario
        # layer is the only supported surface.
        sys.modules.pop("repro.experiments.harness", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.experiments.harness")

    def test_experiments_package_is_gone(self):
        # 0.6.0 folded the figure modules into repro.scenarios and deleted
        # the package together with the second (ExperimentSpec) registry.
        sys.modules.pop("repro.experiments", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.experiments")
        import repro.runner

        for gone in ("ExperimentSpec", "register", "get_experiment", "experiment_names"):
            assert not hasattr(repro.runner, gone)
            assert not hasattr(repro.runner.registry, gone)

    def test_scenario_layer_is_the_supported_surface(self):
        from repro.scenarios.results import ExperimentResult  # noqa: F401
        from repro.scenarios.workloads import make_deployment

        assert callable(make_deployment)


class TestSharedHypervisorCache:
    def test_one_hypervisor_per_node_across_phases(self):
        session = Session.from_spec(SMALL)
        session.deploy("blobcr", n=2)
        deployment = session.deployment
        cache = deployment.hypervisors
        first = cache.get("node-000")
        assert cache.get("node-000") is first
        session.guest_write("vm-000", "/ckpt/s.dat", b"s" * 10_000)
        session.checkpoint()
        session.restart()
        # restart re-deploys on different nodes through the same cache
        assert len(cache) >= 2
        for instance in deployment.instances:
            assert instance.node_name in cache

    def test_baselines_share_the_same_helper(self):
        from repro.cluster.hypervisor import HypervisorCache

        for backend in BUILTIN_BACKENDS:
            deployment = create_backend(backend, Cloud(SMALL))
            assert isinstance(deployment.hypervisors, HypervisorCache)
