"""Declarative scenario engine.

The evaluation decomposes into *scenarios*: a validated, composable
:class:`~repro.scenarios.spec.ScenarioSpec` describes what to run (sweep
axes, approach selection, cluster plan, failure plan, measured quantities)
and the engine turns it into the runner's cell/merge machinery:

* :mod:`repro.scenarios.spec` -- the declarative layer
  (:class:`~repro.scenarios.spec.Axis`,
  :class:`~repro.scenarios.spec.FailurePlan`,
  :class:`~repro.scenarios.spec.ScenarioSpec`) plus the
  ``approach_matrix`` merge factory,
* :mod:`repro.runner.registry` -- ``register_scenario`` validates a spec and
  stores it in the one registry the runner, the CLI and the override parser
  look scenarios up in (re-exported here with ``get_scenario`` and
  ``scenario_names``),
* :mod:`repro.scenarios.overrides` -- ``--override key=value`` parsing for
  ClusterSpec fields and scenario sweep axes,
* ``fig2_checkpoint`` ... ``fig7_dedup`` / ``table1_cm1_size`` -- one module
  per figure/table of the paper,
* :mod:`repro.scenarios.fault_tolerance` / :mod:`~repro.scenarios.scale` /
  :mod:`~repro.scenarios.contention` / :mod:`~repro.scenarios.service` /
  :mod:`~repro.scenarios.migration` -- the beyond-paper scenarios built on
  the same layer.

Importing this package only exposes the building blocks; the scenario
modules register themselves when :func:`repro.runner.registry.load_all`
imports them.
"""

from repro.runner.registry import get_scenario, register_scenario, scenario_names
from repro.scenarios.overrides import apply_cluster_overrides, split_overrides
from repro.scenarios.spec import Axis, FailurePlan, ScenarioSpec, approach_matrix

__all__ = [
    "Axis",
    "FailurePlan",
    "ScenarioSpec",
    "approach_matrix",
    "apply_cluster_overrides",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "split_overrides",
]
