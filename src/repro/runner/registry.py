"""The scenario registry.

Each scenario module registers its validated
:class:`~repro.scenarios.spec.ScenarioSpec` here at import time
(:func:`register_scenario`); the :class:`~repro.runner.parallel.ParallelRunner`
looks specs up by name to enumerate their independent cells for a given
:class:`RunConfig` and to merge executed cells back into the canonical
:class:`~repro.scenarios.results.ExperimentResult` rows, and the CLI and the
override parser introspect the same objects for their axes.
:func:`scenario_names` pins the canonical order of the CLI (fig2 ... mig).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.scenarios.spec import ScenarioSpec
    from repro.util.config import ClusterSpec


@dataclass(frozen=True)
class RunConfig:
    """Scale/cluster knobs shared by every experiment of one run."""

    paper_scale: bool = False
    #: override the simulated cluster (``None`` uses each experiment's default)
    spec: Optional["ClusterSpec"] = None
    #: raw scenario-axis overrides (``"<scenario>.<axis>=v1|v2"``), applied
    #: by each scenario at cell-enumeration time
    overrides: Tuple[str, ...] = ()
    #: base RNG seed override (already folded into :attr:`spec`; recorded
    #: here so perf artifacts can report it)
    seed: Optional[int] = None


_REGISTRY: Dict[str, "ScenarioSpec"] = {}

#: canonical ordering of the built-in scenarios.  Registration order would
#: otherwise depend on which module happened to be imported first (e.g. by a
#: test file); pinning it keeps the CLI and artifacts stable.  Scenarios
#: not listed here (ad-hoc registrations) append in registration order.
_CANONICAL_ORDER = (
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "ft",
    "scale",
    "contention",
    "mtc",
    "evac",
    "mig",
)


def register_scenario(scenario: "ScenarioSpec") -> None:
    """Validate and register one scenario; re-registration under the same
    name replaces the previous spec (so modules stay reload-safe)."""
    scenario.validate()
    _REGISTRY[scenario.name] = scenario


def get_scenario(name: str) -> "ScenarioSpec":
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r} (known: {', '.join(scenario_names()) or 'none'})"
        ) from None


def reporters(source: str) -> Set[str]:
    """``source`` and the registered scenarios that report views of its cells."""
    return {source} | {spec.name for spec in _REGISTRY.values() if spec.view_of == source}


def scenario_names() -> List[str]:
    """Names of all registered scenarios, in canonical order."""
    known = [name for name in _CANONICAL_ORDER if name in _REGISTRY]
    extra = [name for name in _REGISTRY if name not in _CANONICAL_ORDER]
    return known + extra


def load_all() -> List[str]:
    """Import every scenario module so the registry is fully populated.

    The paper's figures (fig2 ... table1) and the beyond-paper scenarios
    (ft, scale, contention, mtc, evac, mig) all live in
    :mod:`repro.scenarios`; importing a module registers its spec(s).
    """
    import repro.scenarios.fig2_checkpoint  # noqa: F401  (imports register the specs)
    import repro.scenarios.fig3_restart  # noqa: F401
    import repro.scenarios.fig4_snapshot_size  # noqa: F401
    import repro.scenarios.fig5_successive  # noqa: F401
    import repro.scenarios.fig6_cm1  # noqa: F401
    import repro.scenarios.fig7_dedup  # noqa: F401
    import repro.scenarios.table1_cm1_size  # noqa: F401
    import repro.scenarios.fault_tolerance  # noqa: F401
    import repro.scenarios.scale  # noqa: F401
    import repro.scenarios.contention  # noqa: F401
    import repro.scenarios.service  # noqa: F401
    import repro.scenarios.migration  # noqa: F401

    return scenario_names()
