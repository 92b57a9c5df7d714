"""``--cells`` selector parsing and matching.

A selector is a colon-separated prefix of a cell key:

* ``fig2`` selects every cell of fig2,
* ``fig2:BlobCR-app`` selects every scale point of that approach,
* ``fig2:BlobCR-app:24`` selects both buffer sizes at 24 processes,
* ``fig2:BlobCR-app:24:50MB`` selects exactly one cell.

Each colon-separated segment may carry shell-style wildcards
(``fnmatch``): ``fig2:*:24`` selects every approach at 24 processes and
``mtc:*`` every mtc cell.  Several selectors may be given (repeated flags
or comma-separated); a cell is kept if any selector matches.  A selector
that matches nothing is an error -- it is almost always a typo, and
silently running an empty experiment would masquerade as success.

:func:`resolve_run_inputs` is the one selection pipeline: experiments,
selectors and overrides in, a validated :class:`RunConfig` out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.runner.cells import Cell
from repro.runner.registry import RunConfig
from repro.scenarios.overrides import resolve_cluster_spec
from repro.util.config import ClusterSpec
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class CellSelector:
    """One parsed ``--cells`` selector (an experiment plus a key prefix)."""

    experiment: str
    parts: Tuple[str, ...]

    @property
    def text(self) -> str:
        return ":".join((self.experiment,) + self.parts)

    def matches(self, cell: Cell) -> bool:
        if not fnmatchcase(cell.experiment, self.experiment):
            return False
        if len(self.parts) > len(cell.parts):
            return False
        return all(
            fnmatchcase(part, pattern)
            for pattern, part in zip(self.parts, cell.parts)
        )


def parse_selectors(raw: Iterable[str]) -> List[CellSelector]:
    """Parse repeated/comma-separated ``--cells`` values."""
    selectors: List[CellSelector] = []
    for chunk in raw:
        for text in chunk.split(","):
            text = text.strip()
            if not text:
                continue
            head, *rest = text.split(":")
            if not head:
                raise ConfigurationError(f"invalid --cells selector {text!r}")
            selectors.append(CellSelector(experiment=head, parts=tuple(rest)))
    return selectors


def filter_cells(cells: Sequence[Cell], selectors: Sequence[CellSelector]) -> List[Cell]:
    """Keep the cells any selector matches, preserving canonical order.

    Raises :class:`ConfigurationError` for selectors that match no cell.
    """
    if not selectors:
        return list(cells)
    unmatched = [sel for sel in selectors if not any(sel.matches(c) for c in cells)]
    if unmatched:
        known = ", ".join(c.key for c in cells[:12])
        more = " ..." if len(cells) > 12 else ""
        raise ConfigurationError(
            "unknown cell selector(s): "
            + ", ".join(sel.text for sel in unmatched)
            + f" (cells look like: {known}{more})"
        )
    return [cell for cell in cells if any(sel.matches(cell) for sel in selectors)]


def resolve_run_inputs(
    names: Sequence[str],
    experiments: Sequence[str],
    cells: Iterable[str],
    overrides: Sequence[str],
    *,
    paper_scale: bool = False,
    seed: Optional[int] = None,
    solver_verify: bool = False,
    base_spec: Optional[ClusterSpec] = None,
) -> Tuple[List[str], List[CellSelector], RunConfig]:
    """Validate experiments/selectors/overrides and fold them into a RunConfig.

    The one selection pipeline behind ``blobcr-repro run``/``trace``,
    :meth:`Session.run_scenario <repro.api.session.Session.run_scenario>` /
    ``Session.trace`` and out-of-process harnesses: anything accepted here
    is accepted identically everywhere, by construction.  ``names`` are the
    registered scenarios; ``base_spec`` is the cluster spec the
    ``cluster.*`` overrides and ``seed`` fold onto (default: the GRAPHENE
    calibration).  Raises :class:`~repro.util.errors.ConfigurationError`
    on unknown experiments, foreign selectors or misdirected overrides.
    """
    unknown = [e for e in experiments if e not in names]
    if unknown:
        raise ConfigurationError(f"unknown experiment(s): {', '.join(unknown)}")

    selectors = parse_selectors(cells)
    # Selector experiments may carry fnmatch wildcards (e.g. `mtc:*` or
    # `fig*:BlobCR-app`); they resolve against the registered names here.
    foreign = [s.text for s in selectors if not any(fnmatchcase(n, s.experiment) for n in names)]
    if foreign:
        raise ConfigurationError(f"unknown experiment(s) in --cells: {', '.join(foreign)}")

    experiments = list(experiments)
    if not experiments:
        if selectors:
            experiments = [
                n
                for n in names
                if any(fnmatchcase(n, s.experiment) for s in selectors)
            ]
        else:
            experiments = list(names)
    outside = [
        s.text
        for s in selectors
        if not any(fnmatchcase(n, s.experiment) for n in experiments)
    ]
    if outside:
        raise ConfigurationError(
            f"--cells selector(s) outside the requested experiments: {', '.join(outside)}"
        )

    # The solver switch is folded into the override stream (rather than
    # into the spec directly) so every artifact records exactly which solver
    # configuration produced it -- on a copy: the caller's list is not ours.
    overrides = list(overrides)
    if solver_verify:
        overrides.append("cluster.solver.verify=true")

    # Validate every override (the misdirected ones would be silently inert
    # yet recorded in the artifact) and fold the cluster-level ones plus
    # the seed into the run's cluster spec.
    cluster_spec = resolve_cluster_spec(
        overrides, names, experiments, base_spec=base_spec, seed=seed
    )
    config = RunConfig(
        paper_scale=paper_scale,
        spec=cluster_spec,
        overrides=tuple(overrides),
        seed=seed,
    )
    return experiments, selectors, config
