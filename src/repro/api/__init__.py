"""``repro.api`` -- the stable programmatic surface of the reproduction.

Everything an application (or a notebook, or a future service front end)
needs, in one import:

* :class:`~repro.api.session.Session` -- cloud construction, backend
  resolution by name, deploy / checkpoint / restart with typed results,
  and scenario runs that are byte-identical to the CLI;
* the deployment-backend registry
  (:func:`~repro.core.backends.register_backend`,
  :func:`~repro.core.backends.create_backend`, ...) so third-party
  strategies plug into every scenario without touching this package;
* the typed result records
  (:class:`~repro.api.results.DeployResult`,
  :class:`~repro.api.results.CheckpointResult`,
  :class:`~repro.api.results.RestartResult`,
  :class:`~repro.api.results.RunReport`,
  :class:`~repro.api.results.TraceReport`).

Quick start::

    from repro.api import Session

    session = Session()
    session.deploy("blobcr", n=4)
    ckpt = session.checkpoint()
    session.restart(ckpt)
    print(session.run_scenario("fig2").to_table())
"""

from repro.api.results import (
    CheckpointResult,
    DeployResult,
    MigrateResult,
    RestartResult,
    RunReport,
    ServeReport,
    TraceReport,
)
from repro.api.session import Overrides, Session
from repro.core.backends import (
    BackendInfo,
    backend_names,
    create_backend,
    get_backend,
    load_builtin_backends,
    register_backend,
)
from repro.util.config import GRAPHENE, ClusterSpec

__all__ = [
    "BackendInfo",
    "CheckpointResult",
    "ClusterSpec",
    "DeployResult",
    "GRAPHENE",
    "MigrateResult",
    "Overrides",
    "RestartResult",
    "RunReport",
    "ServeReport",
    "Session",
    "TraceReport",
    "backend_names",
    "create_backend",
    "get_backend",
    "load_builtin_backends",
    "register_backend",
]
