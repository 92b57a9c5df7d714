"""The deployment-backend registry.

The paper's premise is that checkpoint-restart is a *service* an IaaS cloud
offers: applications pick a persistence strategy by name, not by wiring
concrete classes.  This module is that indirection layer:

* a **backend** is a callable producing a :class:`~repro.core.strategy.Deployment`
  for a given :class:`~repro.cluster.cloud.Cloud` -- usually the
  ``Deployment`` subclass itself;
* :func:`register_backend` (used as a class decorator) publishes a backend
  under a canonical lowercase name together with an option schema derived
  from the factory's signature;
* what a backend can do is what its class implements, never a declared
  flag: :attr:`BackendInfo.live_migration` is true exactly when the factory
  has a ``migrate_instance`` method;
* :func:`create_backend` resolves a name (case-insensitively), validates the
  caller's options against the schema and instantiates the strategy.

The three strategies of the evaluation register themselves at import time
(``blobcr`` in :mod:`repro.core.blobcr`, ``qcow2-disk`` / ``qcow2-full`` in
:mod:`repro.baselines`); :func:`load_builtin_backends` imports them so any
entry point -- the :mod:`repro.api` session facade, the scenario layer, the
CLI -- sees a fully populated registry without hard-coding class references.

``docs/api.md`` documents the registration contract and walks through a
complete third-party backend (registration, option schema derivation,
addressing it from ``Session.deploy`` and from scenario approach labels).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.cluster.cloud import Cloud
    from repro.core.strategy import Deployment


@dataclass(frozen=True)
class BackendOption:
    """One constructor option of a backend's spec schema."""

    name: str
    default: Any


@dataclass(frozen=True)
class BackendInfo:
    """One registry entry: the factory plus everything introspectable."""

    name: str
    factory: Callable[..., "Deployment"]
    description: str
    #: option schema (name -> BackendOption), derived from the factory
    #: signature; ``create_backend`` validates caller options against it
    options: Mapping[str, BackendOption] = field(default_factory=dict)

    @property
    def live_migration(self) -> bool:
        """The factory implements ``migrate_instance`` (``Session.migrate`` needs it)."""
        return callable(getattr(self.factory, "migrate_instance", None))


_BACKENDS: Dict[str, BackendInfo] = {}


def _derive_options(factory: Callable[..., "Deployment"]) -> Dict[str, BackendOption]:
    """Build the spec schema from the factory signature (minus ``cloud``)."""
    schema: Dict[str, BackendOption] = {}
    for index, parameter in enumerate(inspect.signature(factory).parameters.values()):
        if index == 0 or parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        default = None if parameter.default is inspect.Parameter.empty else parameter.default
        schema[parameter.name] = BackendOption(name=parameter.name, default=default)
    return schema


def register_backend(
    name: str, description: str = ""
) -> Callable[[Callable[..., "Deployment"]], Callable[..., "Deployment"]]:
    """Class/function decorator publishing a deployment backend under ``name``.

    Names are canonicalised to lowercase; registering the same name twice is
    an error (backends are identities, silently replacing one would let a
    plugin hijack the built-in strategies).
    """
    key = name.strip().lower()
    if not key:
        raise ConfigurationError("backend name must be non-empty")

    def decorator(factory: Callable[..., "Deployment"]) -> Callable[..., "Deployment"]:
        if key in _BACKENDS:
            raise ConfigurationError(
                f"backend {key!r} is already registered "
                f"(by {_BACKENDS[key].factory!r}); backend names must be unique"
            )
        _BACKENDS[key] = BackendInfo(
            name=key,
            factory=factory,
            description=description or (inspect.getdoc(factory) or "").split("\n")[0],
            options=_derive_options(factory),
        )
        return factory

    return decorator


def load_builtin_backends() -> None:
    """Import the modules registering the built-in backends (idempotent)."""
    import repro.baselines  # noqa: F401  (registers qcow2-disk, qcow2-full)
    import repro.core.blobcr  # noqa: F401  (registers blobcr)


def backend_names() -> List[str]:
    """Names of all registered backends, sorted.

    Sorted rather than registration-ordered: which module imports first
    depends on the entry point, and listings (``--list-backends``, error
    messages) must not depend on that.
    """
    load_builtin_backends()
    return sorted(_BACKENDS)


def get_backend(name: str) -> BackendInfo:
    """Resolve one backend by (case-insensitive) name."""
    load_builtin_backends()
    try:
        return _BACKENDS[name.strip().lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown deployment backend {name!r} "
            f"(available: {', '.join(sorted(_BACKENDS)) or 'none'})"
        ) from None


def create_backend(name: str, cloud: "Cloud", **options: Any) -> "Deployment":
    """Instantiate the named backend on ``cloud`` after validating options."""
    info = get_backend(name)
    unknown = sorted(set(options) - set(info.options))
    if unknown:
        raise ConfigurationError(
            f"backend {info.name!r} does not accept option(s) {', '.join(unknown)} "
            f"(accepted: {', '.join(info.options) or 'none'})"
        )
    return info.factory(cloud, **options)
