"""The public session facade.

A :class:`Session` is the one object an application needs in order to use
the reproduction as a *service*: it owns the simulated cloud, resolves
deployment backends by name through the registry, drives the simulation
clock internally, and returns typed results instead of raw generators.

::

    from repro.api import Session

    session = Session.from_spec(ClusterSpec(...))        # or Session()
    session.deploy("blobcr", n=32)
    ckpt = session.checkpoint()
    session.restart(ckpt)
    report = session.run_scenario("ft", overrides={"ft.mtbf": "300|900"})

``run_scenario`` composes the exact same object graph the CLI builds for
the same scenario and configuration, so its rows are byte-identical to
``blobcr-repro <scenario> --json -`` at any worker count.

``docs/api.md`` is the rendered reference for this module (every public
method, the typed results, and the backend-registry contract with a worked
third-party example); this docstring and that page are kept in lockstep.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Any, Callable, Generator, Iterable, List, Mapping, Optional, Union

from repro.api.results import (
    CheckpointResult,
    DeployResult,
    MigrateResult,
    RestartResult,
    RunReport,
    ServeReport,
    TraceReport,
)
from repro.cluster.cloud import Cloud
from repro.core.backends import BackendInfo, backend_names, create_backend, get_backend
from repro.core.gc import GCReport, SnapshotGarbageCollector
from repro.core.strategy import DeployedInstance, Deployment
from repro.obs import merge_rollups
from repro.runner import ParallelRunner, load_all, resolve_run_inputs
from repro.runner.artifact import build_artifact, validate_artifact
from repro.runner.parallel import CycleStore
from repro.util.bytesource import ByteSource, LiteralBytes
from repro.util.config import GRAPHENE, ClusterSpec
from repro.util.errors import ConfigurationError, RestartError

if False:  # pragma: no cover - typing-only imports (service layer is lazy)
    from repro.service.driver import ServiceConfig
    from repro.service.trace import ServiceTrace

#: override input accepted by :meth:`Session.run_scenario`: either raw
#: ``"key=value"`` strings (the CLI form) or a mapping ``{key: value}``
Overrides = Union[Mapping[str, Any], Iterable[str]]


def _require_type(name: str, value: Any, types: Any, expected: str) -> None:
    """Raise ``TypeError`` naming ``name`` unless ``value`` is one of ``types``.

    A bool is refused too: ``True`` is an ``int`` to Python, never a count.
    """
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"{name} must be {expected}, got {type(value).__name__}")


def _normalise_overrides(overrides: Overrides) -> List[str]:
    if isinstance(overrides, Mapping):
        return [f"{key}={value}" for key, value in overrides.items()]
    return [str(item) for item in overrides]


class Session:
    """Programmatic entry point: cloud lifecycle + backend resolution.

    One session owns one simulated cloud and at most one deployment; the
    scenario runner (:meth:`run_scenario`) builds its own per-cell clouds,
    exactly like the CLI, so it can be used on a fresh session without
    deploying anything.
    """

    def __init__(self, spec: Optional[ClusterSpec] = None):
        #: the caller's spec, or None for "each layer's default" -- kept as
        #: given so run_scenario passes the same value the CLI would
        self._spec = spec
        self._cloud: Optional[Cloud] = None
        self._deployment: Optional[Deployment] = None
        self._backend_name: Optional[str] = None
        self._checkpoints: List[CheckpointResult] = []
        #: scenario cycles executed here that a view or source has yet to report
        self._cycles = CycleStore()

    @classmethod
    def from_spec(cls, spec: ClusterSpec) -> "Session":
        """Build a session over an explicit cluster calibration."""
        return cls(spec)

    # -- introspection -----------------------------------------------------------------

    @property
    def spec(self) -> ClusterSpec:
        """The effective cluster calibration of this session."""
        return self._spec or GRAPHENE

    @property
    def cloud(self) -> Cloud:
        """The session's simulated cloud (constructed on first use)."""
        if self._cloud is None:
            self._cloud = Cloud(self.spec)
        return self._cloud

    @property
    def now(self) -> float:
        """Current simulated time, seconds."""
        return self.cloud.now

    @property
    def deployment(self) -> Deployment:
        """The active deployment strategy (after :meth:`deploy`)."""
        if self._deployment is None:
            raise ConfigurationError("nothing is deployed in this session yet; call deploy()")
        return self._deployment

    @property
    def backend(self) -> str:
        """Name of the deployed backend."""
        if self._backend_name is None:
            raise ConfigurationError("nothing is deployed in this session yet; call deploy()")
        return self._backend_name

    @property
    def instance_ids(self) -> tuple:
        return tuple(inst.instance_id for inst in self.deployment.instances)

    @property
    def checkpoints(self) -> tuple:
        """Every checkpoint taken through this session that can still be
        restarted from (see :meth:`collect`), oldest first."""
        return tuple(self._checkpoints)

    @staticmethod
    def backends() -> List[BackendInfo]:
        """The registered deployment backends (option schema, live migration).

        Sorted by name; includes any third-party backend registered with
        :func:`repro.core.backends.register_backend` before the call (see
        the worked example in ``docs/api.md``).
        """
        return [get_backend(name) for name in backend_names()]

    # -- simulation driving ------------------------------------------------------------

    def drive(self, generator: Generator, name: str = "api-drive") -> Any:
        """Run one simulation process to completion and return its value.

        The escape hatch for application-level workflows (CM1 iterations,
        coordinated MPI checkpoints, ...) that are written as generators:
        the facade owns the clock, the caller keeps its workflow.
        """
        if not self.cloud.live_compute_nodes():
            raise ConfigurationError(
                "cannot drive a simulation with no live compute nodes; "
                "repair or recreate the session first"
            )
        return self.cloud.run(self.cloud.process(generator, name=name))

    def advance(self, seconds: float) -> float:
        """Let the simulation idle for ``seconds``; returns the new time."""
        _require_type("seconds", seconds, Real, "a number")
        if not 0 < seconds < math.inf:
            raise ConfigurationError(
                f"cannot advance by a non-positive or non-finite duration ({seconds})"
            )

        def _idle():
            yield self.cloud.env.timeout(seconds)

        self.drive(_idle(), name="api-advance")
        return self.now

    # -- deployment lifecycle ----------------------------------------------------------

    def deploy(
        self,
        backend: str = "blobcr",
        n: int = 1,
        processes_per_instance: int = 1,
        **options: Any,
    ) -> DeployResult:
        """Deploy ``n`` instances from the base image using the named backend.

        ``backend`` is resolved case-insensitively through the registry
        (:func:`repro.core.backends.get_backend`), so any registered
        third-party backend works here too.  ``options`` are validated
        against the backend's registered option schema (e.g.
        ``adaptive_prefetch=False`` for ``blobcr``); unknown options raise
        :class:`~repro.util.errors.ConfigurationError` listing the accepted
        names.  ``n`` and ``processes_per_instance`` must be integers (else
        ``TypeError``); the strategy base class rejects ``n <= 0`` with
        ValueError.  One deployment per session: a second call raises --
        build a fresh :class:`Session` instead.
        """
        _require_type("n", n, int, "an int")
        _require_type("processes_per_instance", processes_per_instance, int, "an int")
        if self._deployment is not None:
            raise ConfigurationError(
                f"this session already runs a {self._backend_name!r} deployment; "
                "use a fresh Session per deployment"
            )
        info = get_backend(backend)
        deployment = create_backend(backend, self.cloud, **options)
        started = self.now
        self.drive(
            deployment.deploy(n, processes_per_instance=processes_per_instance),
            name=f"api-deploy:{info.name}",
        )
        self._deployment = deployment
        self._backend_name = info.name
        return DeployResult(
            backend=info.name,
            instance_ids=tuple(inst.instance_id for inst in deployment.instances),
            duration_s=self.now - started,
            storage_used_bytes=deployment.storage_used_bytes(),
        )

    def checkpoint(self, tag: str = "") -> CheckpointResult:
        """Take a global (disk-snapshot) checkpoint of every instance.

        Returns a :class:`~repro.api.results.CheckpointResult` carrying the
        measured duration and per-instance snapshot sizes; the result is
        also appended to :attr:`checkpoints`, and :meth:`restart` defaults
        to the most recent one.  ``tag`` labels the checkpoint in the
        repository (useful when inspecting the engine through ``handle``).
        """
        deployment = self.deployment
        started = self.now
        checkpoint = self.drive(deployment.checkpoint_all(tag=tag), name="api-checkpoint")
        result = CheckpointResult(
            index=checkpoint.index,
            duration_s=self.now - started,
            total_snapshot_bytes=checkpoint.total_snapshot_bytes,
            max_snapshot_bytes=checkpoint.max_snapshot_bytes,
            instance_ids=tuple(checkpoint.records),
            handle=checkpoint,
        )
        self._checkpoints.append(result)
        return result

    def kill(self) -> None:
        """Fail-stop every instance (what a crash leaves behind)."""
        self.deployment.kill_all()

    def restart(self, checkpoint: Optional[CheckpointResult] = None) -> RestartResult:
        """Kill everything and restart from ``checkpoint`` on different nodes.

        Defaults to the most recent checkpoint taken through this session
        (``ValueError`` if none was taken; ``TypeError`` for anything that
        is not a :class:`~repro.api.results.CheckpointResult`).  A checkpoint
        whose snapshots :meth:`collect` reclaimed raises
        :class:`~repro.util.errors.RestartError` before anything is killed.
        The restarted instances fault their disk state in on demand (lazy
        restore); the returned :class:`~repro.api.results.RestartResult`
        reports the wall-clock duration on the simulated clock and the bytes
        actually restored.
        """
        deployment = self.deployment
        if checkpoint is not None and not isinstance(checkpoint, CheckpointResult):
            raise TypeError(f"checkpoint is a {type(checkpoint).__name__}, not a CheckpointResult")
        if checkpoint is None:
            if not self._checkpoints:
                raise ConfigurationError("no checkpoint to restart from; call checkpoint() first")
            checkpoint = self._checkpoints[-1]
        elif checkpoint not in self._checkpoints:
            raise RestartError(
                f"checkpoint {checkpoint.index} can no longer be restarted from: its "
                "snapshots were collected (Session.collect)"
            )
        started = self.now
        report = self.drive(deployment.restart_all(checkpoint.handle), name="api-restart")
        return RestartResult(
            duration_s=self.now - started,
            bytes_restored=report.bytes_restored,
            instance_ids=tuple(report.instances),
        )

    def collect(
        self, keep_latest: int = 1, pinned: Iterable[CheckpointResult] = ()
    ) -> GCReport:
        """Reclaim the storage of obsoleted snapshots (the paper's future work).

        Keeps the latest ``keep_latest`` versions of every image in the
        repository, every snapshot of the ``pinned`` checkpoints and, always,
        the snapshots a running instance's disk stands on (the one it reads
        through and its last commit), so collecting never breaks a live
        instance.  Checkpoints that lost a snapshot leave :attr:`checkpoints`.
        Only backends that keep a BlobSeer repository can collect; the others
        raise :class:`~repro.util.errors.ConfigurationError`.  Returns the
        :class:`~repro.core.gc.GCReport` of the pass.
        """
        _require_type("keep_latest", keep_latest, int, "an int")
        deployment = self.deployment
        repository = getattr(deployment, "repository", None)
        if repository is None:
            raise ConfigurationError(
                f"backend {self.backend!r} keeps no BlobSeer repository to collect"
            )
        snapshots = [
            record.snapshot_ref
            for checkpoint in pinned
            for record in checkpoint.handle.records.values()
        ]
        for instance in deployment.instances:
            if instance.vm.is_running:
                snapshots += instance.backend.standing_on()
        keep: dict = {}
        for blob_id, version in snapshots:
            keep.setdefault(blob_id, set()).add(version)
        report = SnapshotGarbageCollector(repository, keep_latest).collect(pinned=keep)
        dropped = set(report.dropped_versions)
        self._checkpoints = [
            checkpoint
            for checkpoint in self._checkpoints
            if dropped.isdisjoint(r.snapshot_ref for r in checkpoint.handle.records.values())
        ]
        return report

    def migrate(
        self,
        instance_id: Optional[str] = None,
        target_node: Optional[str] = None,
        mode: str = "pre-copy",
        demand_paths: Iterable[str] = (),
    ) -> MigrateResult:
        """Live-migrate one instance to another compute node.

        Requires a deployed backend whose class implements
        ``migrate_instance`` (read off the class:
        :attr:`~repro.core.backends.BackendInfo.live_migration`).  ``blobcr``
        offers ``pre-copy`` and ``post-copy``, ``qcow2-full`` only the
        monolithic ``stop-and-copy``; any other backend raises
        :class:`~repro.util.errors.ConfigurationError`.  ``instance_id``
        defaults to the first deployed instance and ``target_node`` to the
        next free compute node.
        ``demand_paths`` (post-copy only) names guest files the workload
        touches right after the switchover, served as demand faults ahead
        of the background prefetch sweep; anything but an iterable of
        ``str`` (a lone ``str`` too) raises ``TypeError``.  Returns a
        :class:`~repro.api.results.MigrateResult`; the engine-level
        :class:`~repro.core.migration.MigrationResult` rides along as
        ``handle``.
        """
        if isinstance(demand_paths, str) or not isinstance(demand_paths, Iterable):
            kind = type(demand_paths).__name__
            raise TypeError(f"demand_paths must be an iterable of str, got {kind}")
        demand_paths = tuple(demand_paths)
        for path in demand_paths:
            if not isinstance(path, str):
                raise TypeError(f"demand_paths must hold only str, got {type(path).__name__}")
        deployment = self.deployment
        info = get_backend(self.backend)
        if not info.live_migration:
            raise ConfigurationError(
                f"backend {info.name!r} does not support live migration "
                "(its deployment class implements no migrate_instance)"
            )
        if instance_id is None:
            instance_id = deployment.instances[0].instance_id
        instance = self._instance(instance_id)
        if target_node is None:
            target_node = self.cloud.reserve_nodes(1, owner=deployment)[0]
        result = self.drive(
            deployment.migrate_instance(
                instance, target_node, mode=mode, demand_paths=demand_paths
            ),
            name=f"api-migrate:{instance_id}",
        )
        return MigrateResult(
            instance_id=result.instance_id,
            mode=result.mode,
            source_node=result.source_node,
            target_node=result.target_node,
            downtime_s=result.downtime_s,
            total_s=result.total_migration_s,
            rounds=len(result.rounds),
            total_bytes_moved=result.total_bytes_moved,
            remote_faults=result.remote_faults,
            rolled_back=result.rolled_back,
            handle=result,
        )

    # -- guest I/O conveniences --------------------------------------------------------

    def _instance(self, instance_id: str) -> DeployedInstance:
        return self.deployment.instance_by_id(instance_id)

    def guest_write(
        self,
        instance_id: str,
        path: str,
        data: Union[bytes, bytearray, memoryview, ByteSource],
        append: bool = False,
    ) -> int:
        """Write a guest file and ``sync`` it (stage 1 of a checkpoint).

        ``data`` is ``bytes``, ``bytearray``, ``memoryview`` or a
        :class:`~repro.util.bytesource.ByteSource`; anything else, or a
        ``path`` that is not a ``str``, raises ``TypeError``.
        """
        _require_type("path", path, str, "a str")
        _require_type(
            "data", data, (bytes, bytearray, memoryview, ByteSource),
            "bytes, bytearray, memoryview or a ByteSource",
        )
        source = data if isinstance(data, ByteSource) else LiteralBytes(bytes(data))
        return self.drive(
            self.deployment.guest_write_and_sync(
                self._instance(instance_id), path, source, append=append
            ),
            name=f"api-write:{instance_id}",
        )

    def guest_read(self, instance_id: str, path: str) -> bytes:
        """Read a guest file back (charging the local disk time)."""
        _require_type("path", path, str, "a str")
        data = self.drive(
            self.deployment.guest_read(self._instance(instance_id), path),
            name=f"api-read:{instance_id}",
        )
        return data.to_bytes()

    # -- the multi-tenant service layer ------------------------------------------------

    def serve(
        self,
        trace: Union["ServiceTrace", str, None] = None,
        tenants: int = 8,
        rate: float = 1.0,
        policy: str = "fifo",
        config: Optional["ServiceConfig"] = None,
    ) -> ServeReport:
        """Serve a multi-tenant job trace on one long-lived cloud.

        ``trace`` is a :class:`~repro.service.trace.ServiceTrace`, a path to
        a schema-versioned JSONL trace file, or ``None`` to synthesize an
        open-loop Poisson trace from ``tenants`` and ``rate`` (arrivals per
        second) -- with exactly the seed the ``mtc`` scenario uses, so the
        default report is byte-identical to the matching ``mtc`` cell.
        ``policy`` picks the admission policy (``fifo``/``fair``) when no
        explicit :class:`~repro.service.driver.ServiceConfig` is given;
        ``config`` takes full control of approach, slots and failure
        injection.  The run builds its own appropriately sized
        cloud from this session's spec (the session's own deployment, if
        any, is untouched).
        """
        from repro.scenarios.service import TRACE_SEED
        from repro.service.admission import AdmissionConfig
        from repro.service.driver import ServiceConfig, run_service
        from repro.service.trace import ServiceTrace, load_trace, synthesize_trace

        if trace is None:
            trace = synthesize_trace(tenants, rate, seed=TRACE_SEED)
        elif isinstance(trace, str):
            trace = load_trace(trace)
        elif not isinstance(trace, ServiceTrace):
            raise ConfigurationError(
                f"trace must be a ServiceTrace, a JSONL path or None, got {type(trace).__name__}"
            )
        if config is None:
            config = ServiceConfig(admission=AdmissionConfig(policy=policy))
        report = run_service(trace, config, spec=self._spec)
        return ServeReport(
            tenants=len(report.tenants),
            duration_s=report.duration_s,
            aggregate=report.aggregate_row(),
            tenant_rows=report.tenant_rows(),
            injected_failures=report.injected_failures,
            handle=report,
        )

    # -- scenarios ---------------------------------------------------------------------

    def run_scenario(
        self,
        name: str,
        overrides: Overrides = (),
        cells: Iterable[str] = (),
        paper_scale: bool = False,
        workers: int = 1,
        seed: Optional[int] = None,
        progress: Optional[Callable] = None,
    ) -> RunReport:
        """Run one registered scenario and return its merged rows.

        Mirrors the CLI configuration pipeline exactly (same override
        validation, same cluster-spec folding, same cell enumeration and
        merge), so the rows are byte-identical to ``blobcr-repro <name>``
        with the equivalent flags.

        ``overrides`` accepts either raw ``"key=value"`` strings (the CLI
        form, ``|`` separating sweep points) or a mapping; ``cells``
        restricts the run to matching selector prefixes; ``workers > 1``
        fans cells over a process pool without changing any row;
        ``progress`` receives ``(done, total, CellResult)`` per finished
        cell.  Raises :class:`~repro.util.errors.ConfigurationError` for
        unknown scenarios, misdirected overrides or foreign selectors.

        A view scenario and its source (``fig2`` and ``fig3``) report two
        phases of one cycle: on the same session, whichever runs second
        reuses the cycles the first executed, once.  A repeated call runs
        its cells again.
        """
        _, selectors, config = resolve_run_inputs(
            load_all(),
            [name],
            cells,
            _normalise_overrides(overrides),
            paper_scale=paper_scale,
            seed=seed,
            base_spec=self._spec,
        )
        runner = ParallelRunner(workers=workers, progress=progress)
        report = runner.run([name], config, selectors, store=self._cycles)
        merged = report.results[0]
        return RunReport(
            experiment=merged.experiment,
            description=merged.description,
            rows=[dict(row) for row in merged.rows],
            cell_keys=tuple(result.key for result in report.cell_results),
            wall_time_s=report.wall_time_s,
            sim_time_s=report.total_sim_time_s,
            workers=workers,
            paper_scale=paper_scale,
        )

    def trace(
        self,
        name: str,
        overrides: Overrides = (),
        cells: Iterable[str] = (),
        paper_scale: bool = False,
        seed: Optional[int] = None,
        workers: int = 1,
    ) -> TraceReport:
        """Trace one registered scenario through the sim-time tracer.

        The programmatic twin of ``blobcr-repro trace``: :meth:`run_scenario`'s
        runner call with the tracer enabled around each cell (in whatever
        worker it lands), returned as a
        :class:`~repro.api.results.TraceReport` wrapping the validated run
        artifact without its ``host`` section.  Tracing never changes
        results: the rows the cells produce are byte-identical to an
        untraced run, and the artifact is byte-identical across repeated
        calls with the same arguments at any ``workers``
        (``docs/observability.md`` spells out the determinism contract).
        Like :meth:`run_scenario`, a view reuses its source's traced cycles
        on the same session (a trace never reuses an untraced cycle).
        """
        _, selectors, config = resolve_run_inputs(
            load_all(),
            [name],
            cells,
            _normalise_overrides(overrides),
            paper_scale=paper_scale,
            seed=seed,
            base_spec=self._spec,
        )
        report = ParallelRunner(workers=workers).run(
            [name], config, selectors, trace=True, store=self._cycles
        )
        document = validate_artifact(build_artifact(report, host=False))
        return TraceReport(
            artifact=document,
            rollups=merge_rollups([cell["rollups"] for cell in document["cells"]]),
            cell_keys=tuple(cell["key"] for cell in document["cells"]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        deployed = (
            f"{self._backend_name}:{len(self._deployment.instances)}"
            if self._deployment is not None
            else "none"
        )
        return f"<Session deployed={deployed} t={self.now:.3f}>"


__all__ = ["Overrides", "Session"]
