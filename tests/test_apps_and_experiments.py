"""Tests for the baselines, applications, MPI runtime and experiment harness."""

import dataclasses
from functools import partial

import numpy as np
import pytest

import repro.apps.synthetic as synthetic
from repro.apps.cm1 import CM1Application, CM1Config
from repro.apps.synthetic import SyntheticBenchmark
from repro.baselines import Qcow2DiskDeployment, Qcow2FullDeployment
from repro.cluster import Cloud
from repro.core import BlobCRDeployment
from repro.runner.cells import execute_cell
from repro.scenarios.fig4_snapshot_size import SCENARIO as FIG4
from repro.scenarios.fig6_cm1 import run_cm1_cell
from repro.scenarios.table1_cm1_size import SCENARIO as TABLE1
from repro.scenarios.workloads import (
    APPROACHES,
    make_deployment,
    run_synthetic_cell,
    split_approach,
)
from repro.mpi import MPICommunicator
from repro.util import bytesource
from repro.util.bytesource import LiteralBytes, SyntheticBytes, ZeroBytes, concat
from repro.util.config import GRAPHENE
from repro.util.errors import CheckpointError, ConfigurationError, MPIError
from repro.util.units import MB, KiB

SMALL = GRAPHENE.scaled(compute_nodes=6, service_nodes=3)


def _flip_a_middle_byte(data):
    """``data`` with its middle byte flipped through a literal patch."""
    at = data.size // 2
    flipped = LiteralBytes(bytes([data.read(at, 1)[0] ^ 1]))
    return concat([data.slice(0, at), flipped, data.slice(at + 1, data.size - at - 1)])


def _swap_two_middle_windows(data):
    """``data`` with two adjacent 64 KiB windows of its middle swapped: every
    byte comes from the right generator stream, at the wrong position."""
    at, window = data.size // 2, 64 * KiB
    rest = data.size - at - 2 * window
    return concat(
        [
            data.slice(0, at),
            data.slice(at + window, window),
            data.slice(at, window),
            data.slice(at + 2 * window, rest),
        ]
    )


class TestBaselines:
    @pytest.mark.parametrize("cls", [Qcow2DiskDeployment, Qcow2FullDeployment])
    def test_deploy_and_checkpoint(self, cls):
        cloud = Cloud(SMALL)
        deployment = cls(cloud)
        out = {}

        def scenario():
            yield from deployment.deploy(2, processes_per_instance=1)
            ckpt = yield from deployment.checkpoint_all()
            out["ckpt"] = ckpt

        cloud.run(cloud.process(scenario()))
        assert len(out["ckpt"].records) == 2
        assert deployment.storage_used_bytes() > 0

    def test_qcow2_disk_snapshot_grows_with_checkpoints(self):
        cloud = Cloud(SMALL)
        deployment = Qcow2DiskDeployment(cloud)
        bench = SyntheticBenchmark(deployment, 4 * MB)
        sizes = []

        def scenario():
            yield from deployment.deploy(1)
            for _ in range(3):
                bench.fill_buffers()
                ckpt = yield from bench.checkpoint_app_level()
                sizes.append(ckpt.max_snapshot_bytes)

        cloud.run(cloud.process(scenario()))
        assert sizes[2] > sizes[0]

    def test_qcow2_full_restart_skips_reboot(self):
        cloud = Cloud(SMALL)
        deployment = Qcow2FullDeployment(cloud)
        out = {}

        def scenario():
            yield from deployment.deploy(1)
            ckpt = yield from deployment.checkpoint_all()
            boots_before = deployment.instances[0].vm.boot_count
            t0 = cloud.now
            yield from deployment.restart_all(ckpt)
            out["restart"] = cloud.now - t0
            out["boots_delta"] = deployment.instances[0].vm.boot_count - boots_before

        cloud.run(cloud.process(scenario()))
        # resume-from-snapshot must not pay the 20 s guest boot time
        assert out["restart"] < cloud.spec.vm.boot_time


class TestRestoredStateVerification:
    """``verify_restored_state`` reads what the level wrote, on every instance."""

    def _restart(self, cls, level, from_empty_snapshot=False):
        cloud = Cloud(SMALL)
        deployment = cls(cloud)
        bench = SyntheticBenchmark(deployment, 2 * MB, level=level)

        def scenario():
            yield from deployment.deploy(2, processes_per_instance=1)
            empty = yield from deployment.checkpoint_all()  # nothing dumped yet
            bench.fill_buffers()
            saved = yield from bench.checkpoint()
            yield from bench.restart(empty if from_empty_snapshot else saved)

        cloud.run(cloud.process(scenario()))
        return deployment, bench

    @pytest.mark.parametrize("cls", [BlobCRDeployment, Qcow2DiskDeployment])
    @pytest.mark.parametrize("level", ["app", "blcr"])
    def test_restart_verifies_until_a_state_file_is_deleted(self, cls, level):
        deployment, bench = self._restart(cls, level)
        assert bench.verify_restored_state()
        fs = deployment.instances[1].vm.filesystem
        for path in fs.listdir("/ckpt"):
            fs.delete(path)
        assert not bench.verify_restored_state()

    @pytest.mark.parametrize("cls", [BlobCRDeployment, Qcow2DiskDeployment])
    @pytest.mark.parametrize("level", ["app", "blcr"])
    def test_restart_from_an_empty_snapshot_does_not_verify(self, cls, level):
        deployment, bench = self._restart(cls, level, from_empty_snapshot=True)
        assert all(inst.vm.is_running for inst in deployment.instances)
        assert not bench.verify_restored_state()

    @pytest.mark.parametrize("corrupt", [_flip_a_middle_byte, _swap_two_middle_windows])
    @pytest.mark.parametrize("cls", [BlobCRDeployment, Qcow2DiskDeployment])
    @pytest.mark.parametrize("level", ["app", "blcr"])
    def test_a_buffer_wrong_only_in_its_middle_does_not_verify(
        self, monkeypatch, cls, level, corrupt
    ):
        _deployment, bench = self._restart(cls, level)
        assert bench.verify_restored_state()
        saved_buffers = SyntheticBenchmark._saved_buffers

        def corrupted(bench, fs, epoch):
            return [corrupt(data) for data in saved_buffers(bench, fs, epoch)]

        monkeypatch.setattr(SyntheticBenchmark, "_saved_buffers", corrupted)
        assert not bench.verify_restored_state()

    def test_verifying_a_fig3_restart_generates_no_content(self, monkeypatch):
        generated, verified = [], []
        block, verify = bytesource._block, SyntheticBenchmark.verify_restored_state

        def spy_block(seed, index):
            generated.append(index)
            return block(seed, index)

        def spy_verify(bench, epoch=None):
            before = len(generated)
            ok = verify(bench, epoch)
            verified.append((ok, len(generated) - before))
            return ok

        monkeypatch.setattr(bytesource, "_block", spy_block)
        monkeypatch.setattr(SyntheticBenchmark, "verify_restored_state", spy_verify)
        payload = run_synthetic_cell("BlobCR-app", 4, 50 * MB)  # fig3:BlobCR-app:4:50MB
        assert payload["restored_ok"] is True
        assert verified == [(True, 0)]  # one verification, and it generated no block

    def test_a_wrong_epoch_does_not_verify(self):
        _deployment, bench = self._restart(BlobCRDeployment, "blcr")
        assert not bench.verify_restored_state(epoch=2)

    def test_full_level_has_nothing_on_disk_to_verify(self):
        _deployment, bench = self._restart(Qcow2FullDeployment, "full")
        assert bench.verify_restored_state()

    def test_fig3_blcr_cell_compares_every_instance_it_restarted(self, monkeypatch):
        compared = []
        blcr_restore = synthetic.blcr_restore

        def spy(dump):
            compared.append(dump.size)
            return blcr_restore(dump)

        monkeypatch.setattr(synthetic, "blcr_restore", spy)
        payload = run_synthetic_cell("BlobCR-blcr", 4, 50 * MB)  # fig3:BlobCR-blcr:4:50MB
        assert payload["restored_ok"] is True
        assert len(compared) == payload["instances"] == 4


def _benchmark(buffer_bytes):
    return SyntheticBenchmark(BlobCRDeployment(Cloud(SMALL)), buffer_bytes)


@pytest.mark.parametrize(
    "build, size, error",
    [
        (partial(SyntheticBytes, "fractional"), 2.7, ValueError),
        (ZeroBytes, 3.9, ValueError),
        (_benchmark, 1.5, CheckpointError),
    ],
    ids=["SyntheticBytes", "ZeroBytes", "SyntheticBenchmark"],
)
def test_a_fractional_size_is_refused_by_name(build, size, error):
    with pytest.raises(error, match=f"must be an integer, got {size}"):
        build(size)


class TestMPIRuntime:
    def _comm(self, ranks=4):
        cloud = Cloud(SMALL)
        return cloud, MPICommunicator(cloud, ranks)

    def test_quiesce_blocks_sends(self):
        cloud, comm = self._comm()
        cloud.run(cloud.process(comm.quiesce()))
        with pytest.raises(MPIError):
            cloud.run(cloud.process(comm.halo_exchange(10)))
        comm.resume_comm()
        cloud.run(cloud.process(comm.halo_exchange(10)))

    def test_quiesce_costs_one_barrier(self):
        cloud, comm = self._comm(ranks=16)
        cloud.run(cloud.process(comm.barrier()))
        barrier_s = cloud.now
        cloud.run(cloud.process(comm.quiesce()))
        assert barrier_s > 0 and cloud.now == 2 * barrier_s

    def test_bad_rank_layout_rejected(self):
        with pytest.raises(MPIError):
            MPICommunicator(Cloud(SMALL), 0)

    def test_collectives_advance_time(self):
        cloud, comm = self._comm()

        def scenario():
            yield from comm.barrier()
            yield from comm.halo_exchange(1000)
            return cloud.now

        assert cloud.run(cloud.process(scenario())) > 0


class TestCM1:
    def test_stencil_conserves_shape_and_changes_values(self):
        cloud = Cloud(SMALL)
        deployment = BlobCRDeployment(cloud)
        config = CM1Config(nx=12, ny=12, nz=6, fields=3)
        app = CM1Application(deployment, config, processes_per_instance=2)

        def scenario():
            yield from deployment.deploy(2, processes_per_instance=2)
            app.init_domain(materialise_state=True)
            before = {r: s.copy() for r, s in app._state.items()}
            yield from app.run_iterations(3, materialised=True)
            return before

        before = cloud.run(cloud.process(scenario()))
        for rank, state in app._state.items():
            assert state.shape == (3, 6, 12, 12)
            assert not np.allclose(state, before[rank])
            assert np.isfinite(state).all()

    def test_weak_scaling_sizes(self):
        config = CM1Config()
        assert config.state_bytes_per_process == 50 * 50 * 60 * 8 * 8
        assert config.memory_bytes_per_process > config.state_bytes_per_process


class TestExperimentHarness:
    def test_split_approach(self):
        assert split_approach("BlobCR-app") == ("BlobCR", "app")
        assert split_approach("qcow2-disk-blcr") == ("qcow2-disk", "blcr")
        assert split_approach("qcow2-full") == ("qcow2-full", "full")
        with pytest.raises(ConfigurationError):
            split_approach("nonsense-app")

    def test_make_deployment_types(self):
        assert isinstance(make_deployment("BlobCR-app", SMALL), BlobCRDeployment)
        assert isinstance(make_deployment("qcow2-disk-app", SMALL), Qcow2DiskDeployment)
        assert isinstance(make_deployment("qcow2-full", SMALL), Qcow2FullDeployment)

    @pytest.mark.parametrize("approach", APPROACHES)
    def test_scenario_runs_for_every_approach(self, approach):
        payload = run_synthetic_cell(approach, instances=2, buffer_bytes=2 * MB, spec=SMALL)
        assert payload["checkpoint_time"] > 0
        assert payload["restart_time"] > 0
        assert payload["snapshot_bytes_per_instance"] > 0
        assert payload["restored_ok"]

    def test_fig4_rows_have_all_approaches(self):
        cells = FIG4.with_axis_values(buffer_bytes=(2 * MB,)).build_cells(cluster_spec=SMALL)
        result = FIG4.merge([execute_cell(cell) for cell in cells])
        assert len(result.rows) == 1
        for approach in APPROACHES:
            assert approach in result.rows[0]
        assert "buffer_MB" in result.columns()
        assert "fig4" in result.to_table()

    def test_table1_shape(self):
        config = CM1Config(nx=10, ny=10, nz=6, fields=3)
        small = dataclasses.replace(TABLE1, cell_func=partial(run_cm1_cell, config=config))
        cells = small.with_axis_values(processes=(8,)).build_cells(cluster_spec=SMALL)
        result = TABLE1.merge([execute_cell(cell) for cell in cells])
        sizes = {row["approach"]: row["snapshot_MB"] for row in result.rows}
        assert sizes["BlobCR-blcr"] >= sizes["BlobCR-app"]
