"""A CM1-like three-dimensional atmospheric model (Section 4.4).

CM1 is a non-hydrostatic, non-linear, time-dependent finite-difference model
used for idealised studies of atmospheric phenomena (the paper simulates the
Bryan & Rotunno 3-D hurricane).  The reproduction implements the structure
that matters for the checkpoint experiments:

* the spatial domain is decomposed into fixed 50x50 (x, y) subdomains, one
  per MPI process, with several vertical levels and several prognostic fields
  (weak scaling: problem size grows with the process count);
* each iteration updates every point from its neighbourhood (an actual NumPy
  stencil update, so examples/tests can verify numerics) and exchanges halo
  layers with the four neighbours;
* application-level checkpoints dump each process's subdomain fields into an
  independent file; every ``summary_interval`` iterations each process also
  writes intermediate summary output -- both behaviours the paper calls out;
* process-level checkpoints instead let BLCR dump the whole process memory,
  which is substantially larger (Table 1) because it includes scratch arrays
  and buffers the application would never save.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

import numpy as np

from repro.core.protocol import CoordinatedCheckpoint
from repro.core.strategy import DeployedInstance, Deployment
from repro.mpi.runtime import MPICommunicator
from repro.util.errors import CheckpointError
from repro.util.rng import make_rng


@dataclass(frozen=True)
class CM1Config:
    """Model configuration (weak scaling: per-process sizes are fixed)."""

    #: horizontal subdomain handled by each MPI process (the paper fixes 50x50)
    nx: int = 50
    ny: int = 50
    #: vertical levels
    nz: int = 60
    #: prognostic fields carried per grid point (velocities, potential
    #: temperature, pressure, moisture species)
    fields: int = 8
    #: scratch / tendency arrays BLCR ends up dumping but the application never saves
    scratch_factor: float = 1.3
    #: iterations between intermediate summary dumps
    summary_interval: int = 5
    #: fraction of the subdomain written into each summary file
    summary_fraction: float = 0.05
    #: physical time step (seconds of simulated atmosphere per iteration)
    dt: float = 1.0
    #: wall-clock seconds one iteration takes on one core of the testbed CPU
    iteration_compute_time: float = 0.12

    @property
    def points_per_process(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def state_bytes_per_process(self) -> int:
        """Bytes of prognostic state one process saves in an app-level checkpoint."""
        return self.points_per_process * self.fields * 8

    @property
    def memory_bytes_per_process(self) -> int:
        """Bytes of memory one process has allocated (what BLCR dumps)."""
        return int(self.state_bytes_per_process * (1.0 + self.scratch_factor))

    @property
    def halo_bytes_per_neighbour(self) -> int:
        return self.ny * self.nz * self.fields * 8


class CM1Application:
    """CM1 running on a deployment (several MPI processes per VM)."""

    def __init__(
        self,
        deployment: Deployment,
        config: Optional[CM1Config] = None,
        processes_per_instance: int = 4,
    ):
        self.deployment = deployment
        self.cloud = deployment.cloud
        self.config = config or CM1Config()
        self.processes_per_instance = processes_per_instance
        self.iteration = 0
        self.comm: Optional[MPICommunicator] = None
        #: per-rank prognostic state (NumPy arrays); populated by init_domain
        self._state: Dict[int, np.ndarray] = {}

    # -- setup -----------------------------------------------------------------------------------

    def build_communicator(self) -> MPICommunicator:
        ranks = len(self.deployment.instances) * self.processes_per_instance
        self.comm = MPICommunicator(self.cloud, ranks)
        return self.comm

    def init_domain(self, materialise_state: bool = False) -> None:
        """Initialise the decomposed domain and size every process's memory.

        ``materialise_state`` additionally allocates real NumPy subdomains so
        the numerics can be exercised (examples and tests); experiments at
        400 processes keep the state symbolic to stay lightweight.
        """
        cfg = self.config
        rank = 0
        for instance in self.deployment.instances:
            for process in instance.vm.processes.values():
                # The guest process's memory footprint is what BLCR will dump.
                process.allocate(
                    "cm1_state", _symbolic_bytes(cfg.state_bytes_per_process, ("cm1", rank))
                )
                process.allocate(
                    "cm1_scratch",
                    _symbolic_bytes(
                        cfg.memory_bytes_per_process - cfg.state_bytes_per_process,
                        ("cm1-scratch", rank),
                    ),
                )
                if materialise_state:
                    rng = make_rng("cm1-domain", rank)
                    self._state[rank] = rng.standard_normal(
                        (cfg.fields, cfg.nz, cfg.ny, cfg.nx)
                    )
                rank += 1
        if self.comm is None:
            self.build_communicator()

    # -- numerics ----------------------------------------------------------------------------------

    def _stencil_update(self, state: np.ndarray) -> np.ndarray:
        """One explicit diffusion-advection-like update (vectorised NumPy)."""
        cfg = self.config
        out = state.copy()
        interior = state[:, 1:-1, 1:-1, 1:-1]
        laplacian = (
            state[:, :-2, 1:-1, 1:-1] + state[:, 2:, 1:-1, 1:-1]
            + state[:, 1:-1, :-2, 1:-1] + state[:, 1:-1, 2:, 1:-1]
            + state[:, 1:-1, 1:-1, :-2] + state[:, 1:-1, 1:-1, 2:]
            - 6.0 * interior
        )
        out[:, 1:-1, 1:-1, 1:-1] = interior + 0.1 * cfg.dt * laplacian
        return out

    def run_iterations(self, count: int, materialised: bool = False) -> Generator:
        """Simulation process: advance the model ``count`` iterations.

        Charges per-iteration compute time and halo-exchange communication;
        every ``summary_interval`` iterations each process writes its summary
        file (independent files, as the paper describes).
        """
        if self.comm is None:
            raise CheckpointError("init_domain() must run before iterations")
        cfg = self.config
        for _ in range(count):
            self.iteration += 1
            if materialised:
                for rank, state in self._state.items():
                    self._state[rank] = self._stencil_update(state)
            compute = self.cloud.jittered(cfg.iteration_compute_time, ("cm1-iter", self.iteration))
            yield self.cloud.env.timeout(compute)
            yield from self.comm.halo_exchange(cfg.halo_bytes_per_neighbour, neighbours=4)
            if self.iteration % cfg.summary_interval == 0:
                yield from self._write_summaries()
        return self.iteration

    def _write_summaries(self) -> Generator:
        cfg = self.config
        summary_bytes = int(cfg.state_bytes_per_process * cfg.summary_fraction)
        writes = []
        for instance in self.deployment.instances:
            for p_index in range(self.processes_per_instance):
                path = f"/out/summary-{p_index}-{self.iteration:05d}.dat"
                data = _symbolic_bytes(
                    summary_bytes, ("cm1-summary", instance.instance_id, p_index, self.iteration)
                )
                instance.vm.filesystem.write_file(path, data)
            writes.append(
                self.cloud.process(
                    self.deployment.guest_sync(instance), name=f"cm1-summary:{instance.instance_id}"
                )
            )
        yield self.cloud.env.all_of(writes)

    # -- checkpointing -----------------------------------------------------------------------------

    def _dump_instance_app_level(self, instance: DeployedInstance) -> Generator:
        cfg = self.config
        fs = instance.vm.filesystem
        for p_index in range(self.processes_per_instance):
            path = f"/ckpt/cm1-restart-{p_index}.dat"
            data = _symbolic_bytes(
                cfg.state_bytes_per_process,
                ("cm1-restart", instance.instance_id, p_index, self.iteration),
            )
            fs.write_file(path, data)
        written = yield from self.deployment.guest_sync(instance)
        return written

    def checkpoint_app_level(self) -> Generator:
        """Simulation process: CM1's own application-level checkpoint."""
        if self.comm is None:
            raise CheckpointError("init_domain() must run before checkpointing")
        started = self.cloud.now
        # CM1 synchronises the MPI processes before dumping the subdomains.
        yield from self.comm.barrier()
        dumps = [
            self.cloud.process(
                self._dump_instance_app_level(inst), name=f"cm1-dump:{inst.instance_id}"
            )
            for inst in self.deployment.instances
        ]
        yield from self.deployment.await_all(dumps)
        checkpoint = yield from self.deployment.checkpoint_all(tag="cm1-app")
        checkpoint_duration = self.cloud.now - started
        return checkpoint, checkpoint_duration

    def checkpoint_process_level(self) -> Generator:
        """Simulation process: transparent BLCR checkpoint through the MPI library."""
        if self.comm is None:
            raise CheckpointError("init_domain() must run before checkpointing")
        started = self.cloud.now
        yield from self.comm.quiesce()
        protocol = CoordinatedCheckpoint(self.deployment)
        checkpoint = yield from protocol.global_checkpoint(tag="cm1-blcr")
        self.comm.resume_comm()
        return checkpoint, self.cloud.now - started


def _symbolic_bytes(size: int, seed: object):
    """Deterministic payload of ``size`` bytes without materialisation."""
    from repro.util.bytesource import SyntheticBytes

    return SyntheticBytes(seed, max(0, size))
