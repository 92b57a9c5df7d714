"""``--override key=value`` parsing for cluster fields and scenario axes.

Two override namespaces exist:

* ``cluster.<path>=<value>`` rewrites one field of the simulated
  :class:`~repro.util.config.ClusterSpec` (dotted paths descend into the
  nested spec dataclasses), e.g. ``cluster.compute_nodes=64`` or
  ``cluster.blobseer.replication=3``.  ``--seed N`` is sugar for
  ``cluster.seed=N``.
* ``<scenario>.<axis>=<v1>|<v2>|...`` replaces one sweep axis of one
  registered scenario, e.g. ``ft.mtbf=900`` or ``scale.instances=64|128``.
  Values are coerced to the axis's value type; ``|`` separates sweep
  points.  A single-valued axis outside the cell key (``mtc.max_queue``)
  takes one value only.

Both kinds are recorded verbatim in the run artifact's ``run`` block so a
recorded run is reproducible from its artifact alone.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.util.config import GRAPHENE, ClusterSpec
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.spec import ScenarioSpec

#: namespace prefix of ClusterSpec overrides
CLUSTER_PREFIX = "cluster"


def _split_assignment(raw: str) -> Tuple[str, str]:
    if "=" not in raw:
        raise ConfigurationError(f"override {raw!r} is not of the form key=value")
    key, value = raw.split("=", 1)
    key = key.strip()
    if not key or "." not in key:
        raise ConfigurationError(
            f"override {raw!r}: key {key!r} must be 'cluster.<field>' or '<scenario>.<axis>'"
        )
    return key, value.strip()


def split_overrides(
    raw: Sequence[str], scenario_names: Sequence[str]
) -> Tuple[List[Tuple[str, str]], List[str]]:
    """Split raw ``--override`` values into (cluster overrides, scenario overrides).

    Cluster overrides come back as ``(dotted-path, value)`` pairs with the
    ``cluster.`` prefix stripped; scenario overrides stay as raw strings for
    :func:`scenario_overrides_for` to apply at enumeration time.
    """
    cluster: List[Tuple[str, str]] = []
    scenario: List[str] = []
    for item in raw:
        key, value = _split_assignment(item)
        head = key.split(".", 1)[0]
        if head == CLUSTER_PREFIX:
            cluster.append((key.split(".", 1)[1], value))
        elif head in scenario_names:
            scenario.append(f"{key}={value}")
        else:
            raise ConfigurationError(
                f"override {item!r} targets neither 'cluster' nor a known scenario "
                f"(known: {', '.join(scenario_names) or 'none'})"
            )
    return cluster, scenario


def resolve_cluster_spec(
    raw: Sequence[str],
    known: Sequence[str],
    selected: Sequence[str],
    base_spec: Optional[ClusterSpec] = None,
    seed: Optional[int] = None,
) -> Optional[ClusterSpec]:
    """Validate overrides for one run and fold the cluster-level ones.

    The override half of :func:`repro.runner.select.resolve_run_inputs`,
    the pipeline the CLI and the :class:`repro.api.session.Session` facade
    share (which is what keeps their rows byte-identical): every override
    is validated against ``known``
    scenario names, scenario overrides addressed to experiments outside
    ``selected`` are rejected (they would be silently inert), and the
    ``cluster.*`` overrides plus ``seed`` are folded onto ``base_spec``
    (default: the GRAPHENE calibration).  Returns the run's cluster-spec
    override -- ``None`` when nothing needs overriding, preserving each
    experiment's default behaviour.
    """
    cluster_overrides, scenario_overrides = split_overrides(raw, known)
    misdirected = [item for item in scenario_overrides if item.split(".", 1)[0] not in selected]
    if misdirected:
        raise ConfigurationError(
            "override(s) target experiment(s) not selected for this run: "
            + ", ".join(misdirected)
        )
    spec = base_spec
    if cluster_overrides or seed is not None:
        base = base_spec or GRAPHENE
        if seed is not None:
            base = base.scaled(seed=seed)
        spec = apply_cluster_overrides(base, cluster_overrides)
    return spec


def coerce_token(kind: type, token: str, context: str) -> Any:
    """Coerce one override token to ``kind`` (shared by cluster + axis overrides)."""
    try:
        if kind is bool:
            if token.lower() in ("1", "true", "yes", "on"):
                return True
            if token.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(token)
        return kind(token)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"cannot parse {token!r} as a {kind.__name__} for {context}"
        ) from None


def _coerce_field(kind: Any, token: str, path: str) -> Any:
    """Coerce one override token to the declared type of the field it replaces
    (a ``float`` field whose default happens to be an int still takes
    ``27.5e6``); an optional field takes its type's values."""
    kinds = [arg for arg in typing.get_args(kind) if arg is not type(None)]
    return coerce_token(kinds[0] if kinds else kind, token, f"cluster.{path}")


def apply_cluster_overrides(
    spec: ClusterSpec, overrides: Sequence[Tuple[str, str]]
) -> ClusterSpec:
    """Apply ``(dotted-path, value)`` overrides to a (frozen) ClusterSpec."""

    def rewrite(obj: Any, parts: List[str], token: str, path: str) -> Any:
        head = parts[0]
        if not dataclasses.is_dataclass(obj) or head not in {
            f.name for f in dataclasses.fields(obj)
        }:
            raise ConfigurationError(f"unknown cluster override field cluster.{path}")
        current = getattr(obj, head)
        if len(parts) == 1:
            if dataclasses.is_dataclass(current):
                raise ConfigurationError(
                    f"cluster.{path} is a group, not a field (override one of its fields)"
                )
            kind = typing.get_type_hints(type(obj))[head]
            return dataclasses.replace(obj, **{head: _coerce_field(kind, token, path)})
        return dataclasses.replace(obj, **{head: rewrite(current, parts[1:], token, path)})

    for path, token in overrides:
        spec = rewrite(spec, path.split("."), token, path)
    try:
        spec.validate()
    except ConfigurationError as exc:
        applied = ", ".join(f"cluster.{path}={token}" for path, token in overrides)
        raise ConfigurationError(f"invalid cluster override {applied}: {exc}") from None
    return spec


def scenario_overrides_for(
    scenario: "ScenarioSpec", overrides: Sequence[str]
) -> Dict[str, Tuple[Any, ...]]:
    """Extract this scenario's axis overrides from raw strings.

    Returns the ``|``-separated values of every override addressed to
    ``scenario``, keyed by axis name and coerced by
    :meth:`~repro.scenarios.spec.Axis.coerce`.  An unknown axis raises with
    the list of valid ones; several values for a non-key axis fail when the
    cells are built (they would share one cell key).
    """
    values: Dict[str, Tuple[Any, ...]] = {}
    for raw in overrides:
        key, value = _split_assignment(raw)
        name, target = key.split(".", 1)
        if name != scenario.name:
            continue
        axis = scenario.axis(target)
        tokens = [t.strip() for t in value.split("|") if t.strip()]
        if not tokens:
            raise ConfigurationError(f"override {raw!r} carries no values")
        values[target] = tuple(axis.coerce(token, scenario.name) for token in tokens)
    return values
