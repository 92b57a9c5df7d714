"""The declarative scenario layer.

A :class:`ScenarioSpec` is a complete, validated description of one
experiment: the sweep axes (with separate reduced and paper-scale values),
how axis points map onto runner cell keys and cell-function parameters, an
optional cluster plan transforming the simulated :class:`ClusterSpec`, an
optional :class:`FailurePlan`, and how executed cells merge back into result
rows.  :func:`repro.runner.registry.register_scenario` stores a spec in the
registry the parallel runner executes from; the paper's figures and the
beyond-paper scenarios are all instantiations of this one layer.

Determinism contract: a cell's identity is ``(scenario name, key parts)``
and nothing else -- the per-cell RNG seed derives from it (see
:class:`repro.runner.cells.Cell`), so two specs that enumerate the same keys
with the same parameters produce bit-identical results regardless of how the
spec was composed (directly, via :meth:`ScenarioSpec.with_axis_values`, or
through ``--override``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runner.cells import Cell, CellPayload, CellResult
from repro.scenarios.results import ExperimentResult, merge_approach_cells
from repro.util.config import GRAPHENE, ClusterSpec
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.runner.registry import RunConfig


@dataclass(frozen=True)
class Axis:
    """One sweep axis of a scenario.

    ``values`` drive the default (reduced) scale; ``paper_values`` (when
    given) replace them under ``--paper-scale``.  ``fmt`` renders a value
    into the cell-key part used for ``--cells`` selectors and per-cell
    seeding; axes that should not appear in the key (fixed parameters that
    callers may still override) are simply left out of the spec's
    ``key_axes``.
    """

    name: str
    values: Tuple[Any, ...]
    paper_values: Optional[Tuple[Any, ...]] = None
    fmt: Callable[[Any], str] = str

    def validate(self) -> None:
        if not self.name:
            raise ConfigurationError("axis name must be non-empty")
        if not self.values:
            raise ConfigurationError(f"axis {self.name!r} has no values")
        if self.paper_values is not None and not self.paper_values:
            raise ConfigurationError(f"axis {self.name!r} has empty paper values")

    def pick(self, paper_scale: bool) -> Tuple[Any, ...]:
        if paper_scale and self.paper_values is not None:
            return self.paper_values
        return self.values

    def coerce(self, token: str) -> Any:
        """Convert one override token to this axis's value type."""
        from repro.scenarios.overrides import coerce_token

        return coerce_token(type(self.values[0]), token, f"axis {self.name!r}")


@dataclass(frozen=True)
class FailurePlan:
    """Fail-stop failure injection plan of a scenario.

    Exactly one mode is active:

    * ``mtbf_s > 0`` -- failures drawn from an exponential distribution with
      the given mean time between failures, scheduled over ``horizon_s``
      simulated seconds from the plan's start;
    * ``at_times`` -- explicit failure offsets (seconds from the plan's
      start), used by the integration tests to hit precise phases;
    * neither -- no failures (the paper's fault-free runs).

    Victims are drawn from the nodes hosting VM instances when the plan is
    scheduled.  The whole schedule (times and victims) is
    fixed up front so every approach faces an identical fault trace; after a
    rollback relocates instances onto spare nodes, a later failure from the
    trace may hit a node that no longer hosts an instance -- it still counts
    as a cluster failure, but only failures that force a recovery show up in
    the driver's ``rollbacks`` statistic.
    """

    mtbf_s: float = 0.0
    at_times: Tuple[float, ...] = ()
    horizon_s: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.mtbf_s > 0 or bool(self.at_times)

    def validate(self) -> None:
        if self.mtbf_s < 0:
            raise ConfigurationError(f"MTBF must be >= 0, got {self.mtbf_s}")
        if self.mtbf_s > 0 and self.at_times:
            raise ConfigurationError("failure plan cannot mix MTBF and explicit times")
        if self.mtbf_s > 0 and self.horizon_s <= 0:
            raise ConfigurationError("an MTBF-driven failure plan needs a positive horizon")
        if any(t < 0 for t in self.at_times):
            raise ConfigurationError(f"failure offsets must be >= 0: {self.at_times}")


#: merge callable: executed cells (canonical order) -> result rows
MergeFn = Callable[[Sequence[CellResult]], ExperimentResult]


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one registered scenario."""

    name: str
    description: str
    #: sweep axes in enumeration (loop) order, outermost first
    axes: Tuple[Axis, ...]
    #: axis names, in the order they appear in the cell key
    key_axes: Tuple[str, ...]
    #: module-level (picklable) cell function executed per sweep point
    cell_func: Callable[..., CellPayload]
    #: map one sweep point (axis name -> value) to the cell parameters
    cell_params: Callable[[Mapping[str, Any]], Dict[str, Any]]
    #: merge executed cells back into canonical rows
    merge: MergeFn
    #: optional cluster plan applied to the run's ClusterSpec (``None``
    #: passes the runner's spec through untouched, preserving the paper
    #: figures' historical behaviour)
    cluster: Optional[Callable[[ClusterSpec], ClusterSpec]] = None
    #: scenario *parameters*: named cell-function arguments that are not
    #: sweep axes (duration caps, trace paths, queue depths, ...).  Their
    #: defaults seed every cell's parameters; ``--override
    #: <scenario>.<param>=<value>`` replaces one of them run-wide, validated
    #: and type-coerced exactly like an axis override.
    params: Mapping[str, Any] = field(default_factory=dict)

    # -- validation --------------------------------------------------------------------

    def validate(self) -> None:
        if not self.name or ":" in self.name:
            raise ConfigurationError(f"invalid scenario name {self.name!r}")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"scenario {self.name!r} has duplicate axes: {names}")
        for axis in self.axes:
            axis.validate()
        unknown = [key for key in self.key_axes if key not in names]
        if unknown:
            raise ConfigurationError(
                f"scenario {self.name!r} key axes {unknown} are not sweep axes"
            )
        if not self.key_axes:
            raise ConfigurationError(f"scenario {self.name!r} needs at least one key axis")
        clashes = sorted(set(self.params) & set(names))
        if clashes:
            raise ConfigurationError(
                f"scenario {self.name!r} parameter(s) {clashes} collide with sweep axes"
            )

    # -- composition -------------------------------------------------------------------

    def axis(self, name: str) -> Axis:
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise ConfigurationError(
            f"scenario {self.name!r} has no axis {name!r} "
            f"(axes: {', '.join(a.name for a in self.axes)})"
        )

    def with_axis_values(self, **values: Sequence[Any]) -> "ScenarioSpec":
        """Derive a spec with the given axes pinned to explicit values.

        Overridden axes apply at both scales (their ``paper_values`` are
        dropped); everything else -- keys, parameters, merge -- is shared,
        so overridden sweeps stay cell-compatible with the original.
        """
        for name in values:
            self.axis(name)  # raise early on unknown axes
        axes = tuple(
            replace(axis, values=tuple(values[axis.name]), paper_values=None)
            if axis.name in values
            else axis
            for axis in self.axes
        )
        derived = replace(self, axes=axes)
        derived.validate()
        return derived

    # -- enumeration -------------------------------------------------------------------

    def sweep_points(self, paper_scale: bool = False) -> List[Dict[str, Any]]:
        """Enumerate the sweep points in canonical (nested-loop) order."""
        points: List[Dict[str, Any]] = [{}]
        for axis in self.axes:
            points = [
                dict(point, **{axis.name: value})
                for point in points
                for value in axis.pick(paper_scale)
            ]
        return points

    def build_cells(
        self,
        paper_scale: bool = False,
        cluster_spec: Optional[ClusterSpec] = None,
        params_override: Optional[Dict[str, Any]] = None,
    ) -> List[Cell]:
        """Build the scenario's runner cells for one configuration.

        ``cluster_spec`` is the run-wide spec override (``--override
        cluster.*`` / ``--seed``); the scenario's own cluster plan is applied
        on top of it (or on the default calibration when no override is
        given).  ``params_override`` force-replaces cell parameters after
        ``cell_params`` -- how ``--override <scenario>.<param>=v`` reaches
        the cells, and how a caller passes a non-axis object such as a
        :class:`~repro.apps.cm1.CM1Config`.
        """
        self.validate()
        if self.cluster is None:
            effective = cluster_spec
        else:
            effective = self.cluster(cluster_spec or GRAPHENE)
        cells: List[Cell] = []
        for point in self.sweep_points(paper_scale):
            parts = tuple(self.axis(name).fmt(point[name]) for name in self.key_axes)
            params = dict(self.params)
            params.update(self.cell_params(point))
            params.setdefault("spec", effective)
            if params_override:
                params.update(params_override)
            cells.append(
                Cell(experiment=self.name, parts=parts, func=self.cell_func, params=params)
            )
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            duplicated = sorted({key for key in keys if keys.count(key) > 1})
            raise ConfigurationError(
                f"scenario {self.name!r} sweep produces duplicate cell keys "
                f"({', '.join(duplicated[:3])}): a non-key axis was swept with "
                "several values, which would collapse distinct configurations "
                "onto one cell identity (same RNG seed, same merged row slot). "
                "Sweep a key axis instead, or override the non-key axis with a "
                "single value."
            )
        return cells

    def enumerate_cells(self, config: "RunConfig") -> List[Cell]:
        """Enumerate cells for one runner configuration (the registry hook)."""
        from repro.scenarios.overrides import scenario_overrides_for

        scenario = self
        axis_values, param_values = scenario_overrides_for(scenario, config.overrides)
        if axis_values:
            scenario = scenario.with_axis_values(**axis_values)
        return scenario.build_cells(
            paper_scale=config.paper_scale,
            cluster_spec=config.spec,
            params_override=param_values or None,
        )


def approach_matrix(
    name: str,
    description: str,
    row_key: Callable[[Dict[str, Any]], Dict[str, Any]],
    value: Callable[[Dict[str, Any]], Any],
) -> MergeFn:
    """Merge factory for the common one-column-per-approach row layout."""

    def merge(results: Sequence[CellResult]) -> ExperimentResult:
        return merge_approach_cells(name, description, results, row_key, value)

    return merge
