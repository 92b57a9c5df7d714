"""Registry-driven parallel experiment runner.

The evaluation of the paper is embarrassingly parallel: every
(experiment, approach, scale-point) cell is an independent
deploy/checkpoint/restart simulation.  This package turns that structure into
a subsystem:

* :mod:`repro.runner.registry` -- the one registry of
  :class:`~repro.scenarios.spec.ScenarioSpec` objects (cell enumeration +
  merge) the runner looks scenarios up in,
* :mod:`repro.runner.cells` -- the :class:`~repro.runner.cells.Cell` work
  unit with deterministic per-cell seeding,
* :mod:`repro.runner.parallel` -- the
  :class:`~repro.runner.parallel.ParallelRunner` process-pool executor,
* :mod:`repro.runner.select` -- ``--cells`` selector parsing,
* :mod:`repro.runner.artifact` -- schema-versioned JSON perf artifacts,
* :mod:`repro.runner.regression` -- the CI benchmark gate consuming them.
"""

from repro.runner.artifact import (
    PROFILE_SCHEMA,
    PROFILE_SCHEMA_VERSION,
    SCHEMA,
    SCHEMA_VERSION,
    TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
    ArtifactError,
    build_artifact,
    build_profile_artifact,
    build_trace_artifact,
    load_artifact,
    load_profile_artifact,
    load_trace_artifact,
    validate_artifact,
    validate_profile_artifact,
    validate_trace_artifact,
    write_artifact,
    write_profile_artifact,
    write_trace_artifact,
)
from repro.runner.cells import Cell, CellResult, execute_cell, run_cells_inline
from repro.runner.parallel import ParallelRunner, ProgressMeter, RunReport
from repro.runner.registry import RunConfig, load_all
from repro.runner.select import CellSelector, filter_cells, parse_selectors

__all__ = [
    "PROFILE_SCHEMA",
    "PROFILE_SCHEMA_VERSION",
    "SCHEMA",
    "SCHEMA_VERSION",
    "ArtifactError",
    "Cell",
    "CellResult",
    "CellSelector",
    "ParallelRunner",
    "ProgressMeter",
    "RunConfig",
    "RunReport",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "build_artifact",
    "build_profile_artifact",
    "build_trace_artifact",
    "execute_cell",
    "filter_cells",
    "load_all",
    "load_artifact",
    "load_profile_artifact",
    "load_trace_artifact",
    "parse_selectors",
    "run_cells_inline",
    "validate_artifact",
    "validate_profile_artifact",
    "validate_trace_artifact",
    "write_artifact",
    "write_profile_artifact",
    "write_trace_artifact",
]
