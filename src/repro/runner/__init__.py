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
* :mod:`repro.runner.artifact` -- the one schema-versioned JSON run artifact,
* :mod:`repro.runner.regression` -- the CI benchmark gate consuming them.
"""

from repro.runner.artifact import (
    SCHEMA,
    SCHEMA_VERSION,
    ArtifactError,
    build_artifact,
    load_artifact,
    validate_artifact,
    write_artifact,
)
from repro.runner.cells import Cell, CellResult, execute_cell, run_cells_inline
from repro.runner.parallel import ParallelRunner, ProgressMeter, RunReport
from repro.runner.registry import RunConfig, load_all
from repro.runner.select import CellSelector, filter_cells, parse_selectors

__all__ = [
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
    "build_artifact",
    "execute_cell",
    "filter_cells",
    "load_all",
    "load_artifact",
    "parse_selectors",
    "run_cells_inline",
    "validate_artifact",
    "write_artifact",
]
