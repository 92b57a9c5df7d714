"""End-to-end recovery integration tests.

The paper's contract: under the fail-stop model, losing a compute node
mid-computation or mid-checkpoint must roll the application back to the most
recent *globally consistent* checkpoint, restart every instance on live
nodes and restore exactly that checkpoint's state -- deterministically.
These tests exercise the full loop for each Deployment strategy (BlobCR and
both qcow2 baselines) through the fault-tolerance driver and through a
direct rollback scenario that pins down which epoch survives.
"""

import pytest
from test_migration import migrate_concurrently

from repro.apps.synthetic import STATE_PATH_TEMPLATE, SyntheticBenchmark
from repro.baselines import Qcow2DiskDeployment, Qcow2FullDeployment
from repro.cluster import Cloud, FailureInjector
from repro.core import BlobCRDeployment
from repro.scenarios.fault_tolerance import (
    FaultToleranceDriver,
    fault_tolerant_cluster,
    run_fault_tolerance_cell,
)
from repro.scenarios.spec import FailurePlan
from repro.util.bytesource import SyntheticBytes
from repro.util.config import GRAPHENE
from repro.util.errors import FailureInjected
from repro.util.units import MB

SMALL = fault_tolerant_cluster(GRAPHENE.scaled(compute_nodes=6, service_nodes=3))

DEPLOYMENTS = [
    ("BlobCR", BlobCRDeployment, "app"),
    ("qcow2-disk", Qcow2DiskDeployment, "app"),
    ("qcow2-full", Qcow2FullDeployment, "full"),
]

#: driver geometry shared by the phase-targeted tests
PERIODS, PERIOD_S = 2, 40.0


def _drive(cls, level, offsets):
    """Run the driver with failures at explicit offsets from steady state."""
    deployment = cls(Cloud(SMALL))
    driver = FaultToleranceDriver(
        deployment,
        buffer_bytes=4 * MB,
        plan=FailurePlan(at_times=tuple(offsets)),
        instances=4,
        periods=PERIODS,
        period_s=PERIOD_S,
        level=level,
        injector_seed=("recovery-test",) + tuple(offsets),
    )
    return driver, driver.run()


class TestRecoveryMidCompute:
    @pytest.mark.parametrize("name,cls,level", DEPLOYMENTS)
    def test_failure_during_compute_rolls_back(self, name, cls, level):
        # Offset 20 s lands in the middle of the first 40 s compute period.
        driver, stats = _drive(cls, level, offsets=(20.0,))
        assert stats["failures"] == 1
        assert stats["rollbacks"] == 1
        assert stats["restored_ok"]
        assert not stats["unrecoverable"]
        assert stats["completed_periods"] == PERIODS
        # The failure struck during computation, before the period's
        # checkpoint began.
        event = driver.injector.history[0]
        assert event.time - stats["steady_state_at"] < PERIOD_S
        # Work since the durable anchor was lost and redone.
        assert stats["lost_work_s"] >= 20.0
        assert stats["rollback_time_s"] > 0
        # Every instance ends on a live node.
        for instance in driver.deployment.instances:
            assert driver.cloud.node(instance.node_name).alive

    @pytest.mark.parametrize("name,cls,level", DEPLOYMENTS)
    def test_failure_during_checkpoint_rolls_back(self, name, cls, level):
        # The first period's checkpoint starts exactly PERIOD_S after steady
        # state; offset PERIOD_S + 0.4 lands inside the in-flight checkpoint.
        driver, stats = _drive(cls, level, offsets=(PERIOD_S + 0.4,))
        assert stats["failures"] == 1
        assert stats["rollbacks"] == 1
        assert stats["restored_ok"]
        assert stats["completed_periods"] == PERIODS
        event = driver.injector.history[0]
        assert event.time - stats["steady_state_at"] >= PERIOD_S
        # The interrupted checkpoint is not durable: the run rolled past it
        # and still had to redo the whole period.
        assert stats["lost_work_s"] >= PERIOD_S


class TestRecoveryDeterminism:
    @pytest.mark.parametrize("name,cls,level", DEPLOYMENTS)
    def test_identical_runs_produce_identical_timings(self, name, cls, level):
        _, first = _drive(cls, level, offsets=(20.0,))
        _, second = _drive(cls, level, offsets=(20.0,))
        assert first == second

    def test_cell_function_is_deterministic(self):
        first = run_fault_tolerance_cell(
            "qcow2-disk-app", 150.0, instances=4, periods=2, spec=SMALL
        )
        second = run_fault_tolerance_cell(
            "qcow2-disk-app", 150.0, instances=4, periods=2, spec=SMALL
        )
        assert first == second
        assert first["failures"] >= 1
        assert first["rollbacks"] >= 1
        assert first["restored_ok"]


class TestRollbackTarget:
    """The restart restores the *most recent* durable checkpoint's state."""

    @pytest.mark.parametrize("name,cls,level", [d for d in DEPLOYMENTS if d[2] == "app"])
    def test_rollback_restores_last_durable_epoch(self, name, cls, level):
        cloud = Cloud(SMALL)
        deployment = cls(cloud)
        bench = SyntheticBenchmark(deployment, 4 * MB)
        injector = FailureInjector(cloud, seed="rollback-target")
        out = {}

        def scenario():
            yield from deployment.deploy(4, processes_per_instance=1)
            # Two durable checkpoints: epoch 1 then epoch 2.
            bench.fill_buffers()
            yield from bench.checkpoint_app_level()
            bench.fill_buffers()
            second = yield from bench.checkpoint_app_level()
            # Crash a host while epoch-3 state exists only in RAM/guest FS.
            bench.fill_buffers()
            victim = deployment.instances[1].node_name
            injector.fail_at(cloud.now + 5.0, victim)
            try:
                yield cloud.env.timeout(10.0)
                dead = [
                    inst for inst in deployment.instances
                    if not cloud.node(inst.node_name).alive
                ]
                assert dead, "the injected failure must kill a hosting node"
                raise FailureInjected("host died", node=dead[0].node_name)
            except FailureInjected:
                yield from bench.restart(second)
            out["epoch2_ok"] = bench.verify_restored_state(epoch=2)
            # The uncheckpointed epoch-3 dump did not survive the rollback.
            path3 = STATE_PATH_TEMPLATE.format(epoch=3)
            out["epoch3_gone"] = all(
                not inst.vm.filesystem.exists(path3)
                for inst in deployment.instances
            )

        cloud.run(cloud.process(scenario()))
        assert out["epoch2_ok"]
        assert out["epoch3_gone"]


class TestMigrationFailurePaths:
    """Source death mid-migration: roll back to durable state or propagate.

    The contract of ``blobcr`` live migration: whatever the migration already made
    durable (the anchor checkpoint plus every *completed* pre-copy round)
    survives the source's death -- the instance restarts on the destination
    from exactly that state, and with no durable version at all the failure
    propagates like any other fail-stop crash.
    """

    def _migrate_with_failure(self, fail_time, mode="pre-copy", demand=()):
        """One deploy/checkpoint/dirty/migrate run, optionally killing the
        source at the given absolute simulated time."""
        cloud = Cloud(SMALL)
        deployment = BlobCRDeployment(cloud)
        bench = SyntheticBenchmark(deployment, 4 * MB)
        injector = FailureInjector(cloud, seed="migration-window")
        out = {}

        def scenario():
            yield from deployment.deploy(2, processes_per_instance=1)
            bench.fill_buffers()
            yield from bench.checkpoint_app_level()
            instance = deployment.instances[0]
            hot = SyntheticBytes("window-dirty", 8 * MB)
            yield from deployment.guest_write_and_sync(instance, "/data/hot.dat", hot)
            target = cloud.reserve_nodes(1, owner=deployment)[0]
            if fail_time is not None:
                injector.fail_at(fail_time, instance.node_name)
            result = yield from deployment.migrate_instance(
                instance, target, mode=mode, demand_paths=demand
            )
            out["result"] = result
            out["target"] = target

        cloud.run(cloud.process(scenario()))
        return deployment, bench, out

    def test_source_death_mid_precopy_round_rolls_back(self):
        cloud = Cloud(SMALL)
        deployment = BlobCRDeployment(cloud)
        bench = SyntheticBenchmark(deployment, 4 * MB)
        injector = FailureInjector(cloud, seed="migration-midround")
        out = {}

        def scenario():
            yield from deployment.deploy(2, processes_per_instance=1)
            bench.fill_buffers()
            yield from bench.checkpoint_app_level()
            instance = deployment.instances[0]
            # A large dirty set makes the first COMMIT round long enough
            # that the scheduled failure is guaranteed to land inside it.
            big = SyntheticBytes("midround-dirty", 96 * MB)
            yield from deployment.guest_write_and_sync(instance, "/data/big.dat", big)
            target = cloud.reserve_nodes(1, owner=deployment)[0]
            injector.fail_at(cloud.now + 0.05, instance.node_name)
            result = yield from deployment.migrate_instance(instance, target)
            out["result"] = result
            out["target"] = target

        cloud.run(cloud.process(scenario()))
        result = out["result"]
        assert result.rolled_back
        assert result.downtime_s > 0
        instance = deployment.instances[0]
        assert instance.node_name == out["target"]
        assert instance.vm.is_running
        # Round 1 never completed, so the rollback target is the anchor
        # checkpoint: epoch-1 state survives, the in-flight dirty data is lost.
        assert bench.verify_restored_state(epoch=1)
        assert not instance.vm.filesystem.exists("/data/big.dat")
        # The sibling instance was never touched.
        sibling = deployment.instances[1]
        assert sibling.vm.is_running
        assert cloud.node(sibling.node_name).alive

    def test_source_death_mid_switchover_keeps_completed_rounds(self):
        # Clean run first: the deterministic timeline tells us exactly where
        # the suspension window lies, so the replay can kill the source
        # inside it.
        _deployment, _bench, clean = self._migrate_with_failure(None)
        reference = clean["result"]
        suspended_at = reference.finished_at - reference.downtime_s
        fail_time = suspended_at + reference.downtime_s * 0.25
        deployment, bench, out = self._migrate_with_failure(fail_time)
        result = out["result"]
        assert result.rolled_back
        instance = deployment.instances[0]
        assert instance.node_name == out["target"]
        assert instance.vm.is_running
        # Round 1 completed (and committed) before the switchover began, so
        # the destination restarts from state that *includes* the hot file.
        assert instance.vm.filesystem.exists("/data/hot.dat")
        assert bench.verify_restored_state(epoch=1)

    def test_source_death_during_postcopy_drain_rolls_back(self):
        _deployment, _bench, clean = self._migrate_with_failure(
            None, mode="post-copy", demand=("/data/hot.dat",)
        )
        reference = clean["result"]
        # Post-copy suspends immediately, so the drain phase (demand faults
        # plus the prefetch sweep) spans resume .. finished.
        resumed_at = reference.started_at + reference.downtime_s
        fail_time = (resumed_at + reference.finished_at) / 2
        assert fail_time > resumed_at
        deployment, bench, out = self._migrate_with_failure(
            fail_time, mode="post-copy", demand=("/data/hot.dat",)
        )
        result = out["result"]
        assert result.rolled_back
        instance = deployment.instances[0]
        assert instance.node_name == out["target"]
        assert instance.vm.is_running
        # Post-copy commits nothing: the open epoch died with the source and
        # only the anchor checkpoint survives.
        assert bench.verify_restored_state(epoch=1)
        assert not instance.vm.filesystem.exists("/data/hot.dat")

    def test_source_death_with_no_durable_version_propagates(self):
        cloud = Cloud(SMALL)
        deployment = BlobCRDeployment(cloud)
        bench = SyntheticBenchmark(deployment, 4 * MB)
        injector = FailureInjector(cloud, seed="migration-nodurable")

        def scenario():
            yield from deployment.deploy(1, processes_per_instance=1)
            bench.fill_buffers()
            instance = deployment.instances[0]
            big = SyntheticBytes("nodurable-dirty", 64 * MB)
            yield from deployment.guest_write_and_sync(instance, "/data/big.dat", big)
            target = cloud.reserve_nodes(1, owner=deployment)[0]
            injector.fail_at(cloud.now + 0.05, instance.node_name)
            yield from deployment.migrate_instance(instance, target)

        with pytest.raises(FailureInjected, match="durable"):
            cloud.run(cloud.process(scenario()))
        assert deployment.migrations == []

    def test_unrecoverable_failure_interrupts_sibling_migrations(self):
        cloud = Cloud(SMALL)
        deployment = BlobCRDeployment(cloud)
        bench = SyntheticBenchmark(deployment, 4 * MB)
        injector = FailureInjector(cloud, seed="migration-siblings")

        def scenario():
            yield from deployment.deploy(2, processes_per_instance=1)
            bench.fill_buffers()
            for index, instance in enumerate(deployment.instances):
                big = SyntheticBytes(("sibling-dirty", index), 64 * MB)
                yield from deployment.guest_write_and_sync(
                    instance, "/data/big.dat", big
                )
            targets = cloud.reserve_nodes(2, owner=deployment)
            mapping = {
                inst.instance_id: target
                for inst, target in zip(deployment.instances, targets)
            }
            injector.fail_at(
                cloud.now + 0.05, deployment.instances[0].node_name
            )
            yield from migrate_concurrently(deployment, mapping)

        # No checkpoint ever ran: the first instance's failure cannot be
        # rolled back, and it takes the concurrent sibling migration down
        # with it before propagating.
        with pytest.raises(FailureInjected):
            cloud.run(cloud.process(scenario()))
        assert deployment.migrations == []
